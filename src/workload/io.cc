// Copyright 2026 The streambid Authors

#include "workload/io.h"

#include <cstdio>
#include <sstream>

#include "common/string_util.h"

namespace streambid::workload {

std::string SerializeWorkload(const RawWorkload& workload) {
  std::ostringstream out;
  out << "streambid-workload v1\n";
  out << "queries " << workload.num_queries() << "\n";
  for (int i = 0; i < workload.num_queries(); ++i) {
    out << "v " << i << " " << workload.valuations[static_cast<size_t>(i)]
        << " " << workload.users[static_cast<size_t>(i)] << "\n";
  }
  for (const RawOperator& op : workload.operators) {
    out << "o " << op.load;
    for (auction::QueryId q : op.subscribers) out << " " << q;
    out << "\n";
  }
  return out.str();
}

Result<RawWorkload> ParseWorkload(const std::string& text) {
  RawWorkload w;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  int num_queries = -1;
  bool saw_header = false;

  auto error = [&line_no](const std::string& message) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": " + message);
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != "streambid-workload v1") {
        return error("expected header 'streambid-workload v1'");
      }
      saw_header = true;
      continue;
    }
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "queries") {
      // A second count would resize the tables under the subscriber
      // indices already read against the first.
      if (num_queries >= 0) return error("repeated 'queries' record");
      if (!(fields >> num_queries) || num_queries < 0) {
        return error("bad query count");
      }
      w.valuations.assign(static_cast<size_t>(num_queries), 0.0);
      w.users.assign(static_cast<size_t>(num_queries), 0);
    } else if (tag == "v") {
      int idx;
      double value;
      auction::UserId user;
      if (!(fields >> idx >> value >> user) || idx < 0 ||
          idx >= num_queries) {
        return error("bad valuation record");
      }
      w.valuations[static_cast<size_t>(idx)] = value;
      w.users[static_cast<size_t>(idx)] = user;
    } else if (tag == "o") {
      RawOperator op;
      if (!(fields >> op.load) || op.load <= 0.0) {
        return error("bad operator load");
      }
      auction::QueryId q;
      while (fields >> q) {
        if (q < 0 || q >= num_queries) {
          return error("operator subscriber out of range");
        }
        op.subscribers.push_back(q);
      }
      w.operators.push_back(std::move(op));
    } else {
      return error("unknown record tag '" + tag + "'");
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument("empty workload file");
  }
  if (num_queries < 0) {
    return Status::InvalidArgument("missing 'queries' record");
  }
  return w;
}

Status SaveWorkload(const RawWorkload& workload, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open for write: " + path);
  }
  const std::string text = SerializeWorkload(workload);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::Internal("short write: " + path);
  }
  return Status::Ok();
}

Result<RawWorkload> LoadWorkload(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::NotFound("cannot open: " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return ParseWorkload(text);
}

}  // namespace streambid::workload
