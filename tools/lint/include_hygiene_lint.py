#!/usr/bin/env python3
# Copyright 2026 The streambid Authors
"""Include-hygiene linter for streambid headers and sources.

Headers are the tree's dependency fan-out: an #include a header does
not need is recompilation tax on every consumer forever, and a symbol
used without its own #include is a transitive leak that breaks the
build the day an unrelated header slims down. This scanner keeps both
honest for the standard-library headers, where a curated token map can
be precise (repo-relative includes are left to the compiler):

  unused-include    a mapped std header is #included but none of its
                    tokens appear in the file body (headers and .cc
                    files).
  missing-include   a mapped std header's tokens appear but the header
                    is not #included directly (attributed to the first
                    use). Headers only: a .cc file gets std names
                    through its own header, which is checked here.

Only headers in the token map participate; anything unmapped is
skipped rather than guessed. The two rules deliberately use different
strictness: unused-include accepts unqualified C-header spellings
(uint64_t, memcpy) as use, while missing-include only fires on
std::-qualified symbols that unambiguously name their header. Suppression is IWYU-style, not NOLINT:
append "// IWYU pragma: keep" to an #include line that is needed for
reasons the token map cannot see (macro use, platform quirks), or add
the (file, header) pair to KEEP_MAP below when the include line should
stay byte-identical to upstream.

Usage:
  include_hygiene_lint.py [--root REPO_ROOT]  # scan src/
  include_hygiene_lint.py --self-test         # run against the fixtures

Self-test: fixture files under tools/lint/fixtures/includes/ mark
each expected finding with "// WANT(<rule>)"; --self-test asserts the
finding set matches the markers exactly.

No third-party dependencies; Python 3.8+ stdlib only.
"""

import argparse
import os
import re
import sys
from typing import Dict, List, Set, Tuple

from determinism_lint import strip_comments_and_strings

Finding = Tuple[str, int, str, str]  # (relpath, line, rule, message)

# --------------------------------------------------------------------------
# Token map: std header -> regex matching the symbols it provides.
# Curated to the subset this repo uses; precision over coverage (a
# header absent here is never flagged either way).
# --------------------------------------------------------------------------

STD_TOKEN_MAP: Dict[str, str] = {
    "algorithm": r"\bstd::(?:sort|stable_sort|min|max|clamp|find|find_if|"
                 r"fill|copy|transform|lower_bound|upper_bound|all_of|"
                 r"any_of|none_of|count_if|remove_if|shuffle|nth_element|"
                 r"partial_sort|reverse|max_element|min_element|push_heap|"
                 r"pop_heap|make_heap)\b",
    "any": r"\bstd::(?:any|any_cast|bad_any_cast)\b",
    "array": r"\bstd::array\b",
    "atomic": r"\bstd::(?:atomic|memory_order)\b",
    "bitset": r"\bstd::bitset\b",
    "cassert": r"\bassert\s*\(",
    "chrono": r"\bstd::chrono\b",
    "cmath": r"\bstd::(?:sqrt|pow|exp|log|log2|log10|fabs|abs|floor|ceil|"
             r"round|lround|isnan|isfinite|isinf|fmod|hypot|lerp|nan)\b",
    "condition_variable": r"\bstd::(?:condition_variable|cv_status)\b",
    "cstddef": r"\bstd::(?:size_t|byte|ptrdiff_t|nullptr_t)\b",
    "cstdint": r"\bstd::u?int(?:8|16|32|64|max|ptr)_t\b",
    "cstdio": r"\bstd::(?:fprintf|printf|snprintf|fopen|fclose|fwrite|"
              r"fflush|FILE)\b",
    "cstdlib": r"\bstd::(?:abort|exit|getenv|strtod|strtol|strtoll|atoll|"
               r"malloc|free)\b",
    "cstring": r"\bstd::(?:memcpy|memset|memmove|strcmp|strlen|strncmp)\b",
    "deque": r"\bstd::deque\b",
    "fstream": r"\bstd::(?:ifstream|ofstream|fstream)\b",
    "functional": r"\bstd::(?:function|reference_wrapper|ref|cref|"
                  r"invoke|hash)\b",
    "initializer_list": r"\bstd::initializer_list\b",
    "iomanip": r"\bstd::(?:setw|setprecision|setfill)\b",
    "iostream": r"\bstd::(?:cout|cerr|cin|clog)\b",
    "limits": r"\bstd::numeric_limits\b",
    "map": r"\bstd::(?:multi)?map\b",
    "memory": r"\bstd::(?:unique_ptr|shared_ptr|weak_ptr|make_unique|"
              r"make_shared|addressof|align|allocator|uninitialized_\w+|"
              r"destroy(?:_at|_n)?)\b",
    "mutex": r"\bstd::(?:mutex|recursive_mutex|lock_guard|unique_lock|"
             r"scoped_lock|adopt_lock|defer_lock|once_flag|call_once)\b",
    "numeric": r"\bstd::(?:accumulate|iota|reduce|gcd|lcm|midpoint)\b",
    "optional": r"\bstd::(?:optional|nullopt|make_optional|"
                r"bad_optional_access)\b",
    "random": r"\bstd::(?:mt19937(?:_64)?|minstd_rand0?|random_device|"
              r"uniform_int_distribution|uniform_real_distribution|"
              r"normal_distribution|bernoulli_distribution|"
              r"discrete_distribution|seed_seq)\b",
    "set": r"\bstd::(?:multi)?set\b",
    "span": r"\bstd::span\b",
    "sstream": r"\bstd::(?:ostringstream|istringstream|stringstream)\b",
    "stdexcept": r"\bstd::(?:runtime_error|logic_error|invalid_argument|"
                 r"out_of_range|length_error|domain_error)\b",
    "string": r"\bstd::(?:string|to_string|stoi|stol|stod|char_traits)\b",
    "string_view": r"\bstd::string_view\b",
    "thread": r"\bstd::(?:thread|this_thread)\b",
    "tuple": r"\bstd::(?:tuple|make_tuple|tie|tuple_size|apply)\b",
    "type_traits": r"\bstd::(?:enable_if|is_same|is_base_of|is_integral|"
                   r"is_floating_point|is_invocable|is_constructible|"
                   r"is_nothrow|decay|remove_reference|remove_cv|"
                   r"remove_cvref|conditional|conjunction|disjunction|"
                   r"negation|void_t|true_type|false_type|"
                   r"is_trivially|aligned_storage|invoke_result)\w*\b",
    "unordered_map": r"\bstd::unordered_(?:multi)?map\b",
    "unordered_set": r"\bstd::unordered_(?:multi)?set\b",
    "utility": r"\bstd::(?:move|forward|pair|make_pair|exchange|swap|"
               r"declval|in_place|index_sequence|make_index_sequence|"
               r"integer_sequence)\b",
    "variant": r"\bstd::(?:variant|visit|monostate|holds_alternative|"
               r"get_if|bad_variant_access)\b",
    "vector": r"\bstd::vector\b",
}

# The <c*> headers also inject their names into the global namespace,
# and this codebase writes `uint64_t`, not `std::uint64_t`. For the
# unused-include check those spellings count as use; missing-include
# keeps the strict std::-qualified map above, because an unqualified
# `size_t` is provided by half the standard library in practice and
# demanding <cstddef> for every one of them is noise, not hygiene.
USE_TOKEN_OVERRIDES: Dict[str, str] = {
    "cassert": r"\b(?:static_)?assert\s*\(",
    "cmath": r"\b(?:std::)?(?:sqrt|pow|exp|log|log2|log10|fabs|floor|"
             r"ceil|round|lround|isnan|isfinite|isinf|fmod|hypot|lerp|"
             r"nan)\s*\(|"
             r"\bstd::abs\b|\b(?:NAN|INFINITY|M_PI)\b",
    "cstddef": r"\b(?:std::)?(?:size_t|ptrdiff_t|max_align_t)\b|"
               r"\bstd::byte\b|\boffsetof\s*\(",
    "cstdint": r"\b(?:std::)?u?int(?:8|16|32|64|max|ptr)_t\b|"
               r"\b(?:U?INT(?:8|16|32|64)_MAX|SIZE_MAX)\b",
    "cstdio": r"\b(?:std::)?(?:fprintf|printf|snprintf|fopen|fclose|"
              r"fwrite|fflush)\s*\(|\bFILE\b|\bstd(?:err|out|in)\b",
    "cstdlib": r"\b(?:std::)?(?:abort|exit|getenv|strtod|strtol|strtoll|"
               r"atoll|malloc|free)\s*\(|\bEXIT_(?:SUCCESS|FAILURE)\b",
    "cstring": r"\b(?:std::)?(?:memcpy|memset|memmove|strcmp|strlen|"
               r"strncmp)\s*\(",
}

COMPILED_TOKEN_MAP = {h: re.compile(p) for h, p in STD_TOKEN_MAP.items()}
COMPILED_USE_MAP = {
    h: re.compile(USE_TOKEN_OVERRIDES.get(h, p))
    for h, p in STD_TOKEN_MAP.items()
}

# (relpath -> headers) to keep regardless of token hits, for cases
# where the include line itself must stay unannotated. Empty today;
# prefer the inline "// IWYU pragma: keep".
KEEP_MAP: Dict[str, Set[str]] = {}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')
PRAGMA_KEEP_RE = re.compile(r"//\s*IWYU\s+pragma:\s*keep")
WANT_RE = re.compile(r"//.*?\bWANT\(([\w-]+)\)")

MESSAGES = {
    "unused-include":
        "no symbol from this header appears in the file; drop the "
        "include (or mark it '// IWYU pragma: keep' with a reason the "
        "token map cannot see)",
    "missing-include":
        "symbol used without its own #include; the current build "
        "leaks it transitively, which breaks the day a dependency "
        "slims down",
}


# --------------------------------------------------------------------------
# Configuration
# --------------------------------------------------------------------------


HEADER_SUFFIXES = (".h", ".hpp")
SOURCE_SUFFIXES = (".cc", ".cpp")


class Config:
    def __init__(self, scan_roots):
        self.scan_roots = scan_roots

    @staticmethod
    def for_src():
        return Config(scan_roots=["src"])

    @staticmethod
    def for_fixtures():
        return Config(scan_roots=["tools/lint/fixtures/includes"])


def iter_files(root: str, config: Config):
    suffixes = HEADER_SUFFIXES + SOURCE_SUFFIXES
    for scan_root in config.scan_roots:
        base = os.path.join(root, scan_root)
        for dirpath, _, filenames in os.walk(base):
            for filename in sorted(filenames):
                if filename.endswith(suffixes):
                    path = os.path.join(dirpath, filename)
                    rel = os.path.relpath(path, root).replace(os.sep, "/")
                    yield rel, path


# --------------------------------------------------------------------------
# Scan
# --------------------------------------------------------------------------


def scan_file(relpath: str, raw: str) -> List[Finding]:
    raw_lines = raw.split("\n")
    stripped = strip_comments_and_strings(raw)

    includes: List[Tuple[int, str, str]] = []  # (line, header, raw line)
    for idx, line in enumerate(raw_lines, start=1):
        m = INCLUDE_RE.match(line)
        if m is not None:
            includes.append((idx, m.group(1), line))
    included = {header for _, header, _ in includes}
    kept = KEEP_MAP.get(relpath, set())

    findings: List[Finding] = []
    for idx, header, line in includes:
        pattern = COMPILED_USE_MAP.get(header)
        if pattern is None:
            continue  # unmapped (incl. every repo-relative include)
        if PRAGMA_KEEP_RE.search(line) or header in kept:
            continue
        if not pattern.search(stripped):
            findings.append((relpath, idx, "unused-include",
                             f"<{header}>: {MESSAGES['unused-include']}"))

    # Headers only (see the module docstring); only the first use of
    # each missing header is reported.
    if relpath.endswith(HEADER_SUFFIXES):
        for header, pattern in COMPILED_TOKEN_MAP.items():
            if header in included:
                continue
            m = pattern.search(stripped)
            if m is None:
                continue
            line_no = stripped.count("\n", 0, m.start()) + 1
            findings.append((
                relpath, line_no, "missing-include",
                f"'{m.group(0)}' needs <{header}>: "
                f"{MESSAGES['missing-include']}"))

    findings.sort(key=lambda f: (f[0], f[1], f[2]))
    return findings


def run_scan(root: str, config: Config) -> List[Finding]:
    findings: List[Finding] = []
    for rel, path in iter_files(root, config):
        with open(path, "r", encoding="utf-8") as f:
            findings.extend(scan_file(rel, f.read()))
    return findings


def self_test(root: str) -> int:
    config = Config.for_fixtures()
    expected: Set[Tuple[str, int, str]] = set()
    for rel, path in iter_files(root, config):
        with open(path, "r", encoding="utf-8") as f:
            for idx, line in enumerate(f, start=1):
                for m in WANT_RE.finditer(line):
                    expected.add((rel, idx, m.group(1)))
    if not expected:
        print("include_hygiene_lint self-test: no WANT markers found under "
              "tools/lint/fixtures/includes -- fixtures missing?")
        return 2

    actual = {(rel, line, rule) for rel, line, rule, _ in
              run_scan(root, config)}
    missing = sorted(expected - actual)
    unexpected = sorted(actual - expected)
    for rel, line, rule in missing:
        print(f"MISSING   {rel}:{line}: expected [{rule}] not reported")
    for rel, line, rule in unexpected:
        print(f"SPURIOUS  {rel}:{line}: reported [{rule}] not expected")
    if missing or unexpected:
        print(f"include_hygiene_lint self-test: FAIL "
              f"({len(missing)} missing, {len(unexpected)} spurious)")
        return 1
    print(f"include_hygiene_lint self-test: OK "
          f"({len(expected)} findings matched)")
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    parser.add_argument("--root", default=default_root,
                        help="repository root (default: two levels up)")
    parser.add_argument("--self-test", action="store_true",
                        help="scan the bundled fixtures and verify the "
                             "finding set against their WANT markers")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(args.root)

    findings = run_scan(args.root, Config.for_src())
    for rel, line, rule, message in findings:
        print(f"{rel}:{line}: [{rule}] {message}")
    if findings:
        print(f"include_hygiene_lint: {len(findings)} finding(s)")
        return 1
    print("include_hygiene_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
