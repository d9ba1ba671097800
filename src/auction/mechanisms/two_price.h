// Copyright 2026 The streambid Authors
// The Two-price randomized mechanism (paper Algorithm 3, §IV-D): the only
// proposed mechanism with a profit guarantee. Bid-strategyproof (Theorem
// 10) and, since allocation and payments ignore query loads entirely,
// strategyproof; expected profit is at least OPT_C - 2h with the
// exhaustive duplicate-handling Step 3 (Theorem 11), and OPT_C - d*h
// without it (Theorem 12), where h is the largest valuation and d the
// number of users tied at the boundary valuation.

#ifndef STREAMBID_AUCTION_MECHANISMS_TWO_PRICE_H_
#define STREAMBID_AUCTION_MECHANISMS_TWO_PRICE_H_

#include "auction/mechanism.h"

namespace streambid::auction {

/// Builds the Two-price mechanism ("two-price") with the exhaustive
/// Step 3 (a subset search over the duplicate set D, exponential in |D|).
MechanismPtr MakeTwoPrice();

/// Builds the polynomial-time variant ("two-price-poly"), Step 3 omitted
/// (Theorem 12).
MechanismPtr MakeTwoPricePoly();

}  // namespace streambid::auction

#endif  // STREAMBID_AUCTION_MECHANISMS_TWO_PRICE_H_
