// bench-diff: compare a freshly generated BENCH_*.json against the
// committed one.
//
//   bench-diff <committed.json> <fresh.json>
//
// Both files are walked in parallel. Every field is a simulated result
// that must match exactly (numbers compared as written, so 165239 and
// 399.12 must reappear digit for digit), except the host-time fields
// `seconds` and `speedup`: those vary with the machine and are not
// compared exactly. A `seconds` value more than 15% above the committed
// one is reported on stdout but does not fail. A `speedup` is flat
// seconds over scheduled seconds, both already compared, so it is not
// reported: it also falls when the flat kernel gets cheaper. A key
// present in one file and not the other is a mismatch.
//
// Exit status: 0 when every simulated field matches, 1 on a mismatch,
// 2 on a usage, read or parse error. Self-contained on purpose (its own
// tiny JSON reader, like trace-lint): CI runs it with no JSON library.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// A JSON value. Scalars keep their source text: exact comparison is
// textual, and host fields are parsed as numbers only when compared.
struct Value {
  enum class Kind { kScalar, kArray, kObject } kind = Kind::kScalar;
  std::string text;                    // scalars (strings keep quotes)
  std::vector<Value> items;            // arrays
  std::map<std::string, Value> fields; // objects
};

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  bool parse(Value& out, std::string& error) {
    if (!value(out) || (ws(), i_ != s_.size())) {
      error = (why_ != nullptr ? why_ : "trailing data") +
              std::string(" at byte ") + std::to_string(i_);
      return false;
    }
    return true;
  }

 private:
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool fail(const char* why) {
    if (why_ == nullptr) why_ = why;
    return false;
  }
  bool eat(char c) {
    ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool string(std::string& out) {
    if (!eat('"')) return fail("expected string");
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] != '"') i_ += s_[i_] == '\\' ? 2 : 1;
    if (i_ >= s_.size()) return fail("unterminated string");
    out = s_.substr(start, i_ - start);
    ++i_;
    return true;
  }

  bool value(Value& out) {
    ws();
    if (i_ >= s_.size()) return fail("unexpected end of input");
    if (s_[i_] == '{') {
      ++i_;
      out.kind = Value::Kind::kObject;
      if (eat('}')) return true;
      do {
        std::string key;
        if (!string(key)) return false;
        if (!eat(':')) return fail("expected ':'");
        if (!value(out.fields[key])) return false;
      } while (eat(','));
      return eat('}') || fail("expected ',' or '}'");
    }
    if (s_[i_] == '[') {
      ++i_;
      out.kind = Value::Kind::kArray;
      if (eat(']')) return true;
      do {
        out.items.emplace_back();
        if (!value(out.items.back())) return false;
      } while (eat(','));
      return eat(']') || fail("expected ',' or ']'");
    }
    if (s_[i_] == '"') {
      std::string str;
      if (!string(str)) return false;
      out.text = '"' + str + '"';
      return true;
    }
    const std::size_t start = i_;
    while (i_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == '-' || s_[i_] == '+')) {
      ++i_;
    }
    if (i_ == start) return fail("expected a value");
    out.text = s_.substr(start, i_ - start);
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
  const char* why_ = nullptr;
};

struct Diff {
  int mismatches = 0;
  int slower = 0;
};

bool is_host_field(const std::string& key) {
  return key == "seconds" || key == "speedup";
}

void compare(const std::string& path, const std::string& key, const Value& a,
             const Value& b, Diff& d) {
  if (a.kind != b.kind) {
    std::printf("MISMATCH %s: different JSON types\n", path.c_str());
    ++d.mismatches;
    return;
  }
  switch (a.kind) {
    case Value::Kind::kObject:
      for (const auto& [k, v] : a.fields) {
        const auto it = b.fields.find(k);
        if (it == b.fields.end()) {
          std::printf("MISMATCH %s.%s: missing from the fresh file\n",
                      path.c_str(), k.c_str());
          ++d.mismatches;
        } else {
          compare(path + "." + k, k, v, it->second, d);
        }
      }
      for (const auto& [k, v] : b.fields) {
        if (a.fields.count(k) == 0) {
          std::printf("MISMATCH %s.%s: not in the committed file\n",
                      path.c_str(), k.c_str());
          ++d.mismatches;
        }
      }
      return;
    case Value::Kind::kArray:
      if (a.items.size() != b.items.size()) {
        std::printf("MISMATCH %s: %zu vs %zu entries\n", path.c_str(),
                    a.items.size(), b.items.size());
        ++d.mismatches;
        return;
      }
      for (std::size_t i = 0; i < a.items.size(); ++i) {
        compare(path + "[" + std::to_string(i) + "]", key, a.items[i],
                b.items[i], d);
      }
      return;
    case Value::Kind::kScalar:
      if (is_host_field(key)) {
        const double was = std::strtod(a.text.c_str(), nullptr);
        const double now = std::strtod(b.text.c_str(), nullptr);
        if (key == "seconds" && now > was * 1.15) {
          std::printf("slower   %s: %s -> %s (host time, not gated)\n",
                      path.c_str(), a.text.c_str(), b.text.c_str());
          ++d.slower;
        }
      } else if (a.text != b.text) {
        std::printf("MISMATCH %s: %s -> %s\n", path.c_str(), a.text.c_str(),
                    b.text.c_str());
        ++d.mismatches;
      }
      return;
  }
}

bool load(const char* path, Value& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "bench-diff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();
  std::string error;
  if (!Reader(text).parse(out, error)) {
    std::fprintf(stderr, "bench-diff: %s: invalid JSON: %s\n", path,
                 error.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: bench-diff <committed.json> <fresh.json>\n");
    return 2;
  }
  Value committed;
  Value fresh;
  if (!load(argv[1], committed) || !load(argv[2], fresh)) return 2;
  Diff d;
  compare("$", "", committed, fresh, d);
  std::printf("bench-diff: %d simulated mismatch(es), %d host field(s) "
              "more than 15%% slower\n",
              d.mismatches, d.slower);
  return d.mismatches == 0 ? 0 : 1;
}
