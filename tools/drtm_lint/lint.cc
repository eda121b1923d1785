#include "tools/drtm_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

namespace drtm {
namespace lint {
namespace {

// --- Lexer ------------------------------------------------------------------

struct Token {
  enum Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct Suppression {
  std::string rule;
  int line = 0;
  bool file_scope = false;
  std::string reason;
};

// Multi-character operators, longest first so greedy matching works.
constexpr std::string_view kPuncts[] = {
    ">>=", "<<=", "...", "->*", "::", "->", "==", "!=", "<=", ">=",
    "+=",  "-=",  "*=",  "/=",  "%=", "&=", "|=", "^=", "<<", ">>",
    "++",  "--",  "&&",  "||",
};

bool IsIdentStart(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool IsIdentChar(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// A rule id is two uppercase letters + two digits (TX01, EL02, CP01...).
bool IsRuleId(const std::string& s, size_t pos) {
  return pos + 4 <= s.size() && std::isupper(static_cast<unsigned char>(s[pos])) &&
         std::isupper(static_cast<unsigned char>(s[pos + 1])) &&
         std::isdigit(static_cast<unsigned char>(s[pos + 2])) &&
         std::isdigit(static_cast<unsigned char>(s[pos + 3]));
}

// Extracts "drtm-lint: allow(XXnn reason)" / "allow-file(XXnn reason)"
// directives from a comment's text.
void ParseDirectives(const std::string& comment, int line,
                     std::vector<Suppression>* out) {
  size_t pos = 0;
  while ((pos = comment.find("drtm-lint:", pos)) != std::string::npos) {
    size_t p = pos + std::string_view("drtm-lint:").size();
    while (p < comment.size() && std::isspace(static_cast<unsigned char>(comment[p]))) ++p;
    bool file_scope = false;
    if (comment.compare(p, 11, "allow-file(") == 0) {
      file_scope = true;
      p += 11;
    } else if (comment.compare(p, 6, "allow(") == 0) {
      p += 6;
    } else {
      pos = p;
      continue;
    }
    const size_t close = comment.find(')', p);
    if (close == std::string::npos) {
      break;
    }
    std::string body = comment.substr(p, close - p);
    Suppression sup;
    sup.line = line;
    sup.file_scope = file_scope;
    if (IsRuleId(body, 0)) {
      sup.rule = body.substr(0, 4);
      size_t r = 4;
      while (r < body.size() && std::isspace(static_cast<unsigned char>(body[r]))) ++r;
      sup.reason = body.substr(r);
      out->push_back(std::move(sup));
    }
    pos = close;
  }
}

void Lex(const std::string& src, std::vector<Token>* toks,
         std::vector<Suppression>* sups) {
  int line = 1;
  bool at_line_start = true;
  size_t i = 0;
  const size_t n = src.size();
  auto push = [&](Token::Kind k, std::string text, int ln) {
    toks->push_back(Token{k, std::move(text), ln});
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor line (with continuations).
    if (c == '#' && at_line_start) {
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    // Comments.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const size_t eol = src.find('\n', i);
      const std::string text =
          src.substr(i + 2, (eol == std::string::npos ? n : eol) - i - 2);
      ParseDirectives(text, line, sups);
      i = (eol == std::string::npos) ? n : eol;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const int start_line = line;
      const size_t end = src.find("*/", i + 2);
      const size_t stop = (end == std::string::npos) ? n : end;
      const std::string text = src.substr(i + 2, stop - i - 2);
      ParseDirectives(text, start_line, sups);
      line += static_cast<int>(std::count(src.begin() + i, src.begin() + stop, '\n'));
      i = (end == std::string::npos) ? n : end + 2;
      continue;
    }
    // String / raw string literals. An immediately preceding encoding
    // prefix identifier (R, u8R, LR, ...) was lexed as an ident; fold it.
    // Plain string contents are preserved: the chaos-point catalog is
    // read off Point("name") literals.
    if (c == '"') {
      bool raw = false;
      if (!toks->empty() && toks->back().kind == Token::kIdent) {
        const std::string& prev = toks->back().text;
        if (prev == "R" || prev == "u8R" || prev == "uR" || prev == "UR" ||
            prev == "LR") {
          raw = true;
          toks->pop_back();
        } else if (prev == "u8" || prev == "u" || prev == "U" || prev == "L") {
          toks->pop_back();
        }
      }
      if (raw) {
        const size_t open = src.find('(', i);
        const std::string delim = src.substr(i + 1, open - i - 1);
        const std::string closer = ")" + delim + "\"";
        const size_t end = src.find(closer, open + 1);
        const size_t stop = (end == std::string::npos) ? n : end + closer.size();
        line += static_cast<int>(std::count(src.begin() + i, src.begin() + stop, '\n'));
        push(Token::kString, "<raw-string>", line);
        i = stop;
        continue;
      }
      size_t j = i + 1;
      std::string content;
      while (j < n && src[j] != '"') {
        if (src[j] == '\\' && j + 1 < n) ++j;
        content.push_back(src[j]);
        ++j;
      }
      push(Token::kString, std::move(content), line);
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (c == '\'') {
      size_t j = i + 1;
      while (j < n && src[j] != '\'') {
        if (src[j] == '\\' && j + 1 < n) ++j;
        ++j;
      }
      push(Token::kChar, "<char>", line);
      i = (j < n) ? j + 1 : n;
      continue;
    }
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(src[j])) ++j;
      push(Token::kIdent, src.substr(i, j - i), line);
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      size_t j = i;
      while (j < n &&
             (std::isalnum(static_cast<unsigned char>(src[j])) || src[j] == '.' ||
              src[j] == '\'' ||
              ((src[j] == '+' || src[j] == '-') && j > i &&
               (src[j - 1] == 'e' || src[j - 1] == 'E' || src[j - 1] == 'p' ||
                src[j - 1] == 'P')))) {
        ++j;
      }
      push(Token::kNumber, src.substr(i, j - i), line);
      i = j;
      continue;
    }
    bool matched = false;
    for (std::string_view p : kPuncts) {
      if (src.compare(i, p.size(), p) == 0) {
        push(Token::kPunct, std::string(p), line);
        i += p.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      push(Token::kPunct, std::string(1, c), line);
      ++i;
    }
  }
}

// --- Token-range helpers ----------------------------------------------------

using Tokens = std::vector<Token>;

bool Is(const Tokens& t, size_t i, std::string_view text) {
  return i < t.size() && t[i].text == text;
}

// Index just past the matching closer for the opener at `open`.
size_t MatchForward(const Tokens& t, size_t open, std::string_view o,
                    std::string_view c) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].text == o) ++depth;
    else if (t[i].text == c && --depth == 0) return i + 1;
  }
  return t.size();
}

const std::unordered_set<std::string>& ControlKeywords() {
  static const std::unordered_set<std::string> kSet = {
      "if",     "while",  "for",    "switch", "catch",  "return",
      "sizeof", "new",    "delete", "throw",  "else",   "do",
      "case",   "static_assert",    "alignof", "alignas", "decltype",
      "assert", "defined",
  };
  return kSet;
}

// Arithmetic/byte type names whose pointers are "data pointers": raw
// access through them inside a transaction bypasses the version table.
// Class-type pointers (table handles etc.) are not data pointers —
// method calls through them are how transactional code is structured.
// void* is deliberately absent: in this codebase void* parameters are
// caller-owned out-buffers (thread-local scratch), not store memory.
const std::unordered_set<std::string>& DataTypeWords() {
  static const std::unordered_set<std::string> kSet = {
      "char",     "short",    "int",      "long",     "float",   "double",
      "bool",     "unsigned", "signed",   "wchar_t",  "int8_t",  "int16_t",
      "int32_t",  "int64_t",  "uint8_t",  "uint16_t", "uint32_t",
      "uint64_t", "size_t",   "ssize_t",  "uintptr_t", "intptr_t",
      "byte",     "auto",
  };
  return kSet;
}

// htm:: primitives and casts: calls that are legal in transaction
// bodies and must not feed the call-graph propagation.
const std::unordered_set<std::string>& SummarySkipNames() {
  static const std::unordered_set<std::string> kSet = {
      "Load",        "Store",       "Read",        "Write",
      "ReadBytes",   "WriteBytes",  "Abort",       "Transact",
      "TransactUntilCommitted",
      "StrongLoad",  "StrongStore", "StrongRead",  "StrongWrite",
      "StrongCas64", "StrongFaa64", "AbortCurrentTransactionOrDie",
      "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
      "move",        "forward",     "min",          "max",
      "size",        "data",        "begin",        "end",
      "clear",       "empty",       "push_back",    "emplace_back",
      "resize",      "reserve",     "insert",       "find",
      "count",       "at",          "front",        "back",
  };
  return kSet;
}

struct Region {
  size_t file = 0;
  size_t begin = 0;  // first token of the body (the '{')
  size_t end = 0;    // one past the closing '}'
  // Parameter-list token range of the enclosing function ([0,0) for
  // lambda bodies — their captures are in scope already).
  size_t param_begin = 0;
  size_t param_end = 0;
  std::string context;
  std::string function;  // enclosing/summarized function name
  size_t depth = 0;      // call edges below the Transact body (0 = the body)
};

struct FunctionDef {
  std::string name;
  Region region;
};

// A call site inside a function body, in token order.
struct CallSite {
  std::string name;
  size_t tok = 0;
  int line = 0;
};

}  // namespace

// --- Analyzer ---------------------------------------------------------------

struct Analyzer::File {
  std::string path;
  Tokens toks;
  std::vector<Suppression> sups;
  bool excluded = false;
};

Analyzer::Analyzer(Options options) : options_(std::move(options)) {}
Analyzer::~Analyzer() = default;
Analyzer::Analyzer(Analyzer&&) noexcept = default;
Analyzer& Analyzer::operator=(Analyzer&&) noexcept = default;

bool Analyzer::AddFile(const std::string& path, std::string content) {
  std::string norm = path;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  while (norm.compare(0, 2, "./") == 0) norm.erase(0, 2);
  for (const File& f : files_) {
    if (f.path == norm) return false;
  }
  File file;
  file.path = std::move(norm);
  Lex(content, &file.toks, &file.sups);
  for (const std::string& fragment : options_.exclude) {
    if (file.path.find(fragment) != std::string::npos) {
      file.excluded = true;
      break;
    }
  }
  files_.push_back(std::move(file));
  return true;
}

bool Analyzer::AddFileFromDisk(const std::string& path,
                               const std::string& display) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  return AddFile(display.empty() ? path : display, buf.str());
}

size_t Analyzer::file_count() const { return files_.size(); }

namespace {

// Finds `Transact(` and `TransactUntilCommitted(` call sites whose
// argument list contains a lambda body, and returns the body brace
// ranges.
void FindTransactBodies(const Tokens& t, size_t file, std::vector<Region>* out) {
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent ||
        (t[i].text != "Transact" && t[i].text != "TransactUntilCommitted") ||
        !Is(t, i + 1, "(")) {
      continue;
    }
    int paren = 0;
    for (size_t j = i + 1; j < t.size(); ++j) {
      if (t[j].text == "(") ++paren;
      else if (t[j].text == ")" && --paren == 0) break;  // no lambda body
      else if (t[j].text == "{") {
        Region r;
        r.file = file;
        r.begin = j;
        r.end = MatchForward(t, j, "{", "}");
        r.context = "Transact body at line " + std::to_string(t[i].line);
        out->push_back(r);
        break;
      }
    }
  }
}

// Token-level function-definition recognition: `name(params) [const...]
// [: ctor-init] {`. Control-flow keywords and member-call contexts are
// filtered; the residue (e.g. TEST macros) is harmless extra coverage.
void FindFunctionDefs(const Tokens& t, size_t file,
                      std::vector<FunctionDef>* out) {
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || !Is(t, i + 1, "(")) continue;
    if (ControlKeywords().count(t[i].text) != 0) continue;
    if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
    const size_t after_params = MatchForward(t, i + 1, "(", ")");
    if (after_params >= t.size()) continue;
    size_t j = after_params;
    while (j < t.size() &&
           (t[j].text == "const" || t[j].text == "noexcept" ||
            t[j].text == "override" || t[j].text == "final" ||
            t[j].text == "mutable")) {
      ++j;
    }
    if (Is(t, j, ":") || Is(t, j, "->")) {
      // Constructor initializer list or trailing return type: scan to
      // the body brace (or give up at a statement end).
      ++j;
      int depth = 0;
      while (j < t.size()) {
        const std::string& x = t[j].text;
        if (x == "(" || x == "[" || x == "<") ++depth;
        else if (x == ")" || x == "]" || x == ">") --depth;
        else if (x == "{" && depth <= 0) break;
        else if (x == ";" && depth <= 0) break;
        ++j;
      }
    }
    if (!Is(t, j, "{")) continue;
    FunctionDef def;
    def.name = t[i].text;
    def.region.file = file;
    def.region.begin = j;
    def.region.end = MatchForward(t, j, "{", "}");
    def.region.param_begin = i + 2;
    def.region.param_end = after_params - 1;
    def.region.function = def.name;
    def.region.context =
        "function '" + def.name + "' at line " + std::to_string(t[i].line);
    out->push_back(std::move(def));
  }
}

// Every call site in a region, in token order. Control keywords are
// filtered; member calls are kept (the summary is name-based).
void CollectCallSites(const Tokens& t, const Region& r,
                      std::vector<CallSite>* out) {
  for (size_t i = r.begin; i + 1 < r.end && i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::kIdent || !Is(t, i + 1, "(")) continue;
    if (ControlKeywords().count(t[i].text) != 0) continue;
    out->push_back(CallSite{t[i].text, i, t[i].line});
  }
}

// Adds pointer-declaration names in [begin, end) to `tracked`: a data
// type word, optional cv words, '*', then the declared identifier.
void ScanPointerDecls(const Tokens& t, size_t begin, size_t end,
                      std::set<std::string>* tracked) {
  for (size_t i = begin; i < end && i < t.size(); ++i) {
    if (t[i].text != "*") continue;
    // Back over cv-qualifiers to the type word.
    size_t k = i;
    while (k > begin &&
           (t[k - 1].text == "const" || t[k - 1].text == "volatile")) {
      --k;
    }
    if (k == begin || t[k - 1].kind != Token::kIdent ||
        DataTypeWords().count(t[k - 1].text) == 0) {
      continue;
    }
    // Forward over cv-qualifiers to the declared name.
    size_t j = i + 1;
    while (j < end && (t[j].text == "const" || t[j].text == "__restrict")) ++j;
    if (j >= end || t[j].kind != Token::kIdent) continue;
    // Looks like a declaration (not multiplication) only if the name is
    // followed by an initializer, separator, or list end.
    if (j + 1 < t.size() &&
        (t[j + 1].text == "=" || t[j + 1].text == ";" ||
         t[j + 1].text == "," || t[j + 1].text == ")")) {
      tracked->insert(t[j].text);
    }
  }
}

bool IsAssignOp(const std::string& s) {
  return s == "=" || s == "+=" || s == "-=" || s == "*=" || s == "/=" ||
         s == "%=" || s == "&=" || s == "|=" || s == "^=" || s == "<<=" ||
         s == ">>=" || s == "++" || s == "--";
}

// Tokens that put a following '*' in prefix (dereference) position.
bool PrefixContext(const std::string& s) {
  return s == "=" || s == "(" || s == "," || s == ";" || s == "{" ||
         s == "}" || s == "return" || s == "<" || s == ">" || s == "==" ||
         s == "!=" || s == "<=" || s == ">=" || s == "&&" || s == "||" ||
         s == "!" || s == "+" || s == "-" || IsAssignOp(s);
}

bool MatchesAny(const std::string& text, const std::vector<std::string>& names) {
  return std::find(names.begin(), names.end(), text) != names.end();
}

// Human tag for a summarized function `depth` call edges below a
// Transact body.
std::string DepthTag(size_t depth) {
  if (depth == 1) return " (reachable from a Transact body)";
  if (depth == 2) return " (reachable from a Transact body via a helper)";
  return " (reachable from a Transact body via " + std::to_string(depth - 1) +
         " helpers)";
}

uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HexFingerprint(uint64_t h) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[h & 0xf];
    h >>= 4;
  }
  return out;
}

}  // namespace

std::vector<Finding> Analyzer::Unsuppressed() const {
  std::vector<Finding> out;
  for (const Finding& f : findings_) {
    if (!f.suppressed) out.push_back(f);
  }
  return out;
}

void Analyzer::Run() {
  findings_.clear();
  chaos_catalog_.clear();

  // Raw findings carry the token index of the violating site so the same
  // site reached through several call paths (or the same header pulled
  // into several translation units) keys to one report entry.
  struct RawFinding {
    Finding finding;
    size_t file = 0;
    size_t tok = 0;
    size_t depth = 0;
  };
  std::vector<RawFinding> raw;
  // (rule, file, token) -> index into `raw`; the shallowest path wins.
  std::map<std::tuple<std::string, size_t, size_t>, size_t> site_index;

  auto report = [&](size_t file_idx, const std::string& rule, size_t tok,
                    int line, std::string message, const Region& region) {
    const File& file = files_[file_idx];
    const auto key = std::make_tuple(rule, file_idx, tok);
    auto it = site_index.find(key);
    if (it != site_index.end()) {
      if (region.depth < raw[it->second].depth) {
        raw[it->second].finding.context = region.context;
        raw[it->second].depth = region.depth;
      }
      return;
    }
    Finding f;
    f.rule = rule;
    f.file = file.path;
    f.line = line;
    f.message = std::move(message);
    f.context = region.context;
    f.function = region.function;
    for (const Suppression& sup : file.sups) {
      if (sup.rule != rule) continue;
      if (sup.file_scope || sup.line == line || sup.line == line - 1) {
        f.suppressed = true;
        f.suppress_reason = sup.reason;
        break;
      }
    }
    site_index.emplace(key, raw.size());
    raw.push_back(RawFinding{std::move(f), file_idx, tok, region.depth});
  };

  // --- Pass 1: regions, definitions and per-function summaries --------------
  std::vector<Region> transact_bodies;
  std::vector<FunctionDef> defs;
  for (size_t fi = 0; fi < files_.size(); ++fi) {
    if (files_[fi].excluded) continue;
    FindTransactBodies(files_[fi].toks, fi, &transact_bodies);
    FindFunctionDefs(files_[fi].toks, fi, &defs);
  }

  // Per-definition call summaries, plus the rule-vocabulary bits.
  struct Summary {
    std::vector<CallSite> calls;
    bool calls_gate = false;
    bool calls_notify = false;
    bool calls_chaos = false;
    bool reach_notify = false;  // fixpoint: self or any callee
    bool reach_chaos = false;   // fixpoint: self or any callee
    bool gated = true;          // fixpoint over callers (greatest fixpoint)
  };
  std::vector<Summary> summaries(defs.size());
  std::unordered_map<std::string, std::vector<size_t>> defs_by_name;
  for (size_t d = 0; d < defs.size(); ++d) {
    defs_by_name[defs[d].name].push_back(d);
  }
  for (size_t d = 0; d < defs.size(); ++d) {
    const Tokens& t = files_[defs[d].region.file].toks;
    CollectCallSites(t, defs[d].region, &summaries[d].calls);
    for (const CallSite& c : summaries[d].calls) {
      if (MatchesAny(c.name, options_.acquire_gates)) summaries[d].calls_gate = true;
      if (MatchesAny(c.name, options_.notify_names)) summaries[d].calls_notify = true;
      if (MatchesAny(c.name, options_.chaos_markers)) summaries[d].calls_chaos = true;
    }
  }

  // Chaos point catalog: every Point("name") literal in the corpus.
  {
    std::set<std::string> catalog;
    for (const File& file : files_) {
      const Tokens& t = file.toks;
      for (size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind == Token::kIdent && t[i].text == "Point" &&
            Is(t, i + 1, "(") && t[i + 2].kind == Token::kString &&
            !t[i + 2].text.empty()) {
          catalog.insert(t[i + 2].text);
        }
      }
    }
    chaos_catalog_.assign(catalog.begin(), catalog.end());
  }

  // Call-graph edges (callee defs per definition), with the htm::
  // primitive vocabulary filtered out so e.g. `Load` never aliases into
  // a user-defined Load().
  auto callees_of = [&](size_t d, std::vector<size_t>* out) {
    for (const CallSite& c : summaries[d].calls) {
      if (SummarySkipNames().count(c.name) != 0) continue;
      auto it = defs_by_name.find(c.name);
      if (it == defs_by_name.end()) continue;
      for (size_t callee : it->second) {
        if (callee != d) out->push_back(callee);
      }
    }
  };

  // --- Pass 2: worklist fixpoints over the call graph -----------------------

  // (a) Transact reachability: minimum call depth below any Transact
  // lambda body, to options_.max_call_depth. This is the engine that
  // carries TX obligations to arbitrary depth.
  std::vector<size_t> depth(defs.size(), SIZE_MAX);
  {
    std::deque<size_t> worklist;
    std::set<std::string> seeds;
    for (const Region& body : transact_bodies) {
      std::vector<CallSite> calls;
      CollectCallSites(files_[body.file].toks, body, &calls);
      for (const CallSite& c : calls) {
        if (SummarySkipNames().count(c.name) != 0) continue;
        seeds.insert(c.name);
      }
    }
    for (const std::string& name : seeds) {
      auto it = defs_by_name.find(name);
      if (it == defs_by_name.end()) continue;
      for (size_t d : it->second) {
        if (depth[d] > 1) {
          depth[d] = 1;
          worklist.push_back(d);
        }
      }
    }
    while (!worklist.empty()) {
      const size_t d = worklist.front();
      worklist.pop_front();
      if (depth[d] >= options_.max_call_depth) continue;
      std::vector<size_t> callees;
      callees_of(d, &callees);
      for (size_t callee : callees) {
        if (depth[callee] > depth[d] + 1) {
          depth[callee] = depth[d] + 1;
          worklist.push_back(callee);
        }
      }
    }
  }

  // (b) Forward closures: does some path out of each definition reach a
  // notify call (EL02) / a chaos-injector reference (CP01)?
  {
    bool changed = true;
    for (size_t d = 0; d < defs.size(); ++d) {
      summaries[d].reach_notify = summaries[d].calls_notify;
      summaries[d].reach_chaos = summaries[d].calls_chaos;
    }
    while (changed) {
      changed = false;
      for (size_t d = 0; d < defs.size(); ++d) {
        if (summaries[d].reach_notify && summaries[d].reach_chaos) continue;
        std::vector<size_t> callees;
        callees_of(d, &callees);
        for (size_t callee : callees) {
          if (!summaries[d].reach_notify && summaries[callee].reach_notify) {
            summaries[d].reach_notify = true;
            changed = true;
          }
          if (!summaries[d].reach_chaos && summaries[callee].reach_chaos) {
            summaries[d].reach_chaos = true;
            changed = true;
          }
        }
      }
    }
  }

  // (c) EL01 gate cover, a greatest fixpoint over the REVERSE graph:
  // a definition is gated when it consults the gate itself or when every
  // caller (by name) is gated. Roots with neither gate nor callers are
  // not gated, and that verdict flows down. (A caller cycle with no
  // outside entry keeps its optimistic verdict — dead code can't acquire
  // anything at runtime.)
  {
    std::vector<std::vector<size_t>> callers(defs.size());
    for (size_t d = 0; d < defs.size(); ++d) {
      std::vector<size_t> callees;
      callees_of(d, &callees);
      std::sort(callees.begin(), callees.end());
      callees.erase(std::unique(callees.begin(), callees.end()), callees.end());
      for (size_t callee : callees) callers[callee].push_back(d);
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t d = 0; d < defs.size(); ++d) {
        if (!summaries[d].gated || summaries[d].calls_gate) continue;
        bool now_gated = !callers[d].empty();
        for (size_t caller : callers[d]) {
          if (!summaries[caller].gated) {
            now_gated = false;
            break;
          }
        }
        if (!now_gated) {
          summaries[d].gated = false;
          changed = true;
        }
      }
    }
  }

  // --- Pass 3: assemble the transactional regions ----------------------------

  // Drop nested Transact regions already covered by an enclosing one.
  std::vector<Region> primary;
  for (const Region& r : transact_bodies) {
    bool covered = false;
    for (const Region& o : transact_bodies) {
      if (o.file == r.file && (o.begin < r.begin && r.end <= o.end)) {
        covered = true;
        break;
      }
    }
    if (!covered) primary.push_back(r);
  }
  // Lambda bodies capture the enclosing function's scope, so a region
  // inherits the pointer parameters (and the name) of the tightest
  // enclosing function.
  for (Region& r : primary) {
    size_t best_size = SIZE_MAX;
    for (const FunctionDef& def : defs) {
      if (def.region.file != r.file) continue;
      if (def.region.begin <= r.begin && r.end <= def.region.end &&
          def.region.end - def.region.begin < best_size) {
        best_size = def.region.end - def.region.begin;
        r.param_begin = def.region.param_begin;
        r.param_end = def.region.param_end;
        r.function = def.name;
      }
    }
  }
  std::vector<Region> transactional = primary;
  for (size_t d = 0; d < defs.size(); ++d) {
    if (depth[d] == SIZE_MAX) continue;
    Region r = defs[d].region;
    r.depth = depth[d];
    r.context += DepthTag(depth[d]);
    transactional.push_back(std::move(r));
  }
  std::stable_sort(transactional.begin(), transactional.end(),
                   [](const Region& a, const Region& b) {
                     return a.depth < b.depth;
                   });

  // --- TX01 / TX02 / TX04 over each transactional region ---------------------
  for (const Region& r : transactional) {
    const File& file = files_[r.file];
    const Tokens& t = file.toks;
    const size_t end = std::min(r.end, t.size());

    std::set<std::string> tracked;
    ScanPointerDecls(t, r.param_begin, r.param_end, &tracked);
    ScanPointerDecls(t, r.begin, end, &tracked);

    for (size_t i = r.begin; i < end; ++i) {
      const Token& tok = t[i];
      // TX01a: indexed access through a tracked data pointer. A
      // preceding '&' is address-of (typically an htm:: argument), not
      // an access.
      if (tok.kind == Token::kIdent && tracked.count(tok.text) != 0 &&
          Is(t, i + 1, "[") && !(i > r.begin && t[i - 1].text == "&")) {
        const size_t after = MatchForward(t, i + 1, "[", "]");
        const bool store = after < end && IsAssignOp(t[after].text);
        report(r.file, "TX01", i, tok.line,
               std::string(store ? "raw indexed store through '"
                                 : "raw indexed read through '") +
                   tok.text + "' — route through htm::" +
                   (store ? "Store/WriteBytes" : "Load/ReadBytes"),
               r);
        continue;
      }
      // TX01b: unary dereference of a tracked data pointer.
      if (tok.text == "*" && i + 1 < end && t[i + 1].kind == Token::kIdent &&
          tracked.count(t[i + 1].text) != 0 && i > r.begin &&
          PrefixContext(t[i - 1].text)) {
        const bool store = i + 2 < end && IsAssignOp(t[i + 2].text);
        report(r.file, "TX01", i, tok.line,
               std::string(store ? "raw store through '*" : "raw read through '*") +
                   t[i + 1].text + "' — route through htm::" +
                   (store ? "Store/WriteBytes" : "Load/ReadBytes"),
               r);
        continue;
      }
      // TX01c: raw bulk copy into a tracked data pointer.
      if (tok.kind == Token::kIdent &&
          (tok.text == "memcpy" || tok.text == "memmove" ||
           tok.text == "memset" || tok.text == "strcpy" ||
           tok.text == "strncpy") &&
          Is(t, i + 1, "(")) {
        const size_t arg = i + 2;
        const bool raw_dst =
            arg < end &&
            ((t[arg].kind == Token::kIdent && tracked.count(t[arg].text) != 0) ||
             t[arg].text == "reinterpret_cast" || t[arg].text == "*");
        if (raw_dst) {
          report(r.file, "TX01", i, tok.line,
                 tok.text + " writes raw bytes to transactional memory — "
                            "use htm::WriteBytes",
                 r);
        }
        continue;
      }
      // TX02: irreversible side effects under AbortException unwinding.
      if (tok.kind == Token::kIdent) {
        static const std::unordered_set<std::string> kAlloc = {
            "new", "delete", "malloc", "calloc", "realloc", "free", "strdup"};
        static const std::unordered_set<std::string> kIo = {
            "printf", "fprintf", "vprintf", "vfprintf", "puts",  "fputs",
            "putchar", "fwrite", "fread",   "fopen",    "fclose", "fflush",
            "fgets",  "scanf",   "system",  "exit",     "_exit",  "abort"};
        static const std::unordered_set<std::string> kStream = {"cout", "cerr",
                                                                "clog"};
        static const std::unordered_set<std::string> kLockTypes = {
            "mutex", "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
            "condition_variable"};
        static const std::unordered_set<std::string> kLockCalls = {
            "lock", "unlock", "try_lock"};
        static const std::unordered_set<std::string> kSleep = {
            "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until"};
        const bool member = i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");
        if (kAlloc.count(tok.text) != 0 && !member) {
          report(r.file, "TX02", i, tok.line,
                 "'" + tok.text + "' in a transaction body leaks on "
                 "AbortException unwinding",
                 r);
        } else if (kIo.count(tok.text) != 0 && !member && Is(t, i + 1, "(")) {
          report(r.file, "TX02", i, tok.line,
                 "I/O call '" + tok.text + "' is an irreversible side effect "
                 "inside a transaction body",
                 r);
        } else if (kStream.count(tok.text) != 0 && !member) {
          report(r.file, "TX02", i, tok.line,
                 "stream I/O 'std::" + tok.text + "' is an irreversible side "
                 "effect inside a transaction body",
                 r);
        } else if (kLockTypes.count(tok.text) != 0 && !member) {
          report(r.file, "TX02", i, tok.line,
                 "blocking primitive '" + tok.text + "' can deadlock when an "
                 "abort unwinds past it",
                 r);
        } else if (kLockCalls.count(tok.text) != 0 && member &&
                   Is(t, i + 1, "(")) {
          report(r.file, "TX02", i, tok.line,
                 "mutex ." + tok.text + "() inside a transaction body is not "
                 "released by AbortException unwinding",
                 r);
        } else if (kSleep.count(tok.text) != 0 && Is(t, i + 1, "(")) {
          report(r.file, "TX02", i, tok.line,
                 "sleeping inside a transaction body holds the read/write "
                 "set across the wait",
                 r);
        }
      }
      // TX04: catch clauses that swallow the abort unwind.
      if (tok.text == "catch" && Is(t, i + 1, "(")) {
        const size_t close = MatchForward(t, i + 1, "(", ")");
        bool catches_all = Is(t, i + 2, "...");
        bool catches_abort = false;
        for (size_t j = i + 2; j + 1 < close; ++j) {
          if (t[j].text == "AbortException") catches_abort = true;
        }
        if (catches_all) {
          report(r.file, "TX04", i, tok.line,
                 "catch (...) inside a transaction body swallows the "
                 "AbortException unwind and corrupts emulator state",
                 r);
        } else if (catches_abort) {
          report(r.file, "TX04", i, tok.line,
                 "catching AbortException inside a transaction body corrupts "
                 "the emulator's depth/read-set state",
                 r);
        }
      }
    }
  }

  // --- LS01 over every htm-using region --------------------------------------
  // A transactional READ of a lock/lease word that still has a data
  // access after it keeps the word in the HTM read set across the rest
  // of the region, so the holder's unlock store aborts this transaction
  // needlessly (mem-record-rtmseq.c's lazy-subscription argument).
  // Reads placed after the last data access — and stores that clear an
  // expired lease — are fine. Scanned over the Transact-reachable
  // regions PLUS any function issuing member htm accesses: the call
  // graph deliberately cuts propagation at Transaction::Read/Write
  // (their names shadow the htm primitive vocabulary), yet their bodies
  // are the canonical transactional accessors.
  {
    static const std::unordered_set<std::string> kHtmReads = {
        "Load", "Read", "ReadBytes"};
    static const std::unordered_set<std::string> kHtmAccess = {
        "Load", "Store", "Read", "Write", "ReadBytes", "WriteBytes"};
    auto scan_ls01 = [&](const Region& r) {
      const Tokens& t = files_[r.file].toks;
      const size_t end = std::min(r.end, t.size());
      auto is_htm_call = [&](size_t i,
                             const std::unordered_set<std::string>& set) {
        return t[i].kind == Token::kIdent && set.count(t[i].text) != 0 &&
               Is(t, i + 1, "(") && i > r.begin &&
               (t[i - 1].text == "." || t[i - 1].text == "::");
      };
      auto arg_mentions = [&](size_t call_ident,
                              const std::vector<std::string>& markers) {
        const size_t close = MatchForward(t, call_ident + 1, "(", ")");
        for (size_t k = call_ident + 2; k + 1 < close; ++k) {
          if (t[k].kind == Token::kIdent && MatchesAny(t[k].text, markers)) {
            return true;
          }
        }
        return false;
      };
      size_t last_data_tok = 0;
      for (size_t i = r.begin; i < end; ++i) {
        if (is_htm_call(i, kHtmAccess) &&
            !arg_mentions(i, options_.lock_word_markers) &&
            !arg_mentions(i, options_.subscription_neutral_markers)) {
          last_data_tok = i;
        }
      }
      if (last_data_tok == 0) return;
      for (size_t i = r.begin; i < last_data_tok; ++i) {
        if (is_htm_call(i, kHtmReads) &&
            arg_mentions(i, options_.lock_word_markers)) {
          report(r.file, "LS01", i, t[i].line,
                 // The later access is named, not located: a line
                 // number here would leak into the fingerprint.
                 "early lock/lease-word subscription: this transactional "
                 "read precedes a later '" +
                     t[last_data_tok].text +
                     "' data access — defer the probe until after the last "
                     "data access",
                 r);
        }
      }
    };
    for (const Region& r : transactional) scan_ls01(r);
    for (const FunctionDef& def : defs) {
      if (files_[def.region.file].excluded) continue;
      const Tokens& t = files_[def.region.file].toks;
      bool uses_htm = false;
      for (size_t i = def.region.begin;
           i + 1 < def.region.end && i + 1 < t.size(); ++i) {
        if (t[i].kind == Token::kIdent && kHtmAccess.count(t[i].text) != 0 &&
            Is(t, i + 1, "(") && i > 0 &&
            (t[i - 1].text == "." || t[i - 1].text == "::")) {
          uses_htm = true;
          break;
        }
      }
      if (uses_htm) scan_ls01(def.region);
    }
  }

  // --- TX03: Strong* confinement (whole files, not just regions) -----------
  for (size_t fi = 0; fi < files_.size(); ++fi) {
    const File& file = files_[fi];
    if (file.excluded) continue;
    bool allowed = false;
    for (const std::string& fragment : options_.strong_allowlist) {
      if (file.path.find(fragment) != std::string::npos) {
        allowed = true;
        break;
      }
    }
    if (allowed) continue;
    const Tokens& t = file.toks;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kIdent ||
          t[i].text.compare(0, 6, "Strong") != 0 || !Is(t, i + 1, "(")) {
        continue;
      }
      Region file_scope;
      file_scope.file = fi;
      file_scope.context = "file scope";
      report(fi, "TX03", i, t[i].line,
             "'" + t[i].text + "' outside the RDMA/softtime/recovery "
             "allowlist bypasses HTM conflict detection",
             file_scope);
    }
  }

  // --- EL01 / EL02 / LS02 / CP01 over every definition -----------------------
  for (size_t d = 0; d < defs.size(); ++d) {
    const FunctionDef& def = defs[d];
    const File& file = files_[def.region.file];
    if (file.excluded) continue;
    const Tokens& t = file.toks;
    const Summary& sum = summaries[d];

    // EL01: acquire primitives on an ungated path.
    if (!sum.gated && !sum.calls_gate) {
      for (const CallSite& c : sum.calls) {
        if (!MatchesAny(c.name, options_.acquire_primitives)) continue;
        report(def.region.file, "EL01", c.tok, c.line,
               "'" + c.name + "' acquires a lock/lease or installs a table "
               "entry on a path that never consults "
               "ElasticHooks::AllowAcquire — a live bucket migration can "
               "lose this write across the ownership flip",
               def.region);
      }
    }

    // EL02: a write-back path that never reaches the commit notify.
    if (!sum.reach_notify) {
      for (const CallSite& c : sum.calls) {
        if (!MatchesAny(c.name, options_.writeback_names)) continue;
        report(def.region.file, "EL02", c.tok, c.line,
               "'" + c.name + "' writes back committed values but no path "
               "from here reaches NotifyCommittedWrites — the elastic "
               "tier's dual-write misses these commits",
               def.region);
      }
    }

    // LS02: lease arithmetic against an unsynchronized clock.
    {
      bool mentions_lease = false;
      for (size_t i = def.region.begin;
           i < def.region.end && i < t.size(); ++i) {
        if (t[i].kind == Token::kIdent &&
            MatchesAny(t[i].text, options_.lease_markers)) {
          mentions_lease = true;
          break;
        }
      }
      if (mentions_lease) {
        for (size_t i = def.region.begin;
             i < def.region.end && i < t.size(); ++i) {
          if (t[i].kind != Token::kIdent ||
              !MatchesAny(t[i].text, options_.unsynced_time_names)) {
            continue;
          }
          if (!(Is(t, i + 1, "(") || Is(t, i + 1, "::"))) continue;
          report(def.region.file, "LS02", i, t[i].line,
                 "lease validity compared against unsynchronized time "
                 "source '" + t[i].text + "' — leases are only meaningful "
                 "against the synced softtime (SyncTime)",
                 def.region);
        }
      }
    }
  }

  // CP01: mutating entry points with no chaos point on any path.
  for (const EntryPointSpec& spec : options_.chaos_entry_points) {
    for (size_t d = 0; d < defs.size(); ++d) {
      const FunctionDef& def = defs[d];
      const File& file = files_[def.region.file];
      if (file.excluded || def.name != spec.function) continue;
      if (file.path.find(spec.file_fragment) == std::string::npos) continue;
      if (summaries[d].reach_chaos) continue;
      const int line =
          files_[def.region.file].toks[def.region.begin].line;
      report(def.region.file, "CP01", def.region.begin, line,
             "mutating entry point '" + def.name + "' has no chaos::Injector "
             "point on any path — fault-injection sweeps cannot cover it "
             "(catalog: " + std::to_string(chaos_catalog_.size()) +
             " registered points)",
             def.region);
    }
  }

  // --- Fingerprints ----------------------------------------------------------
  // Ordinal = position among findings with the same (rule, file,
  // function, message), in token order, so two identical violations in
  // one function keep distinct identities while line churn above them
  // changes nothing.
  std::stable_sort(raw.begin(), raw.end(),
                   [](const RawFinding& a, const RawFinding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.tok < b.tok;
                   });
  std::map<std::string, size_t> ordinals;
  for (RawFinding& rf : raw) {
    Finding& f = rf.finding;
    const std::string key =
        f.rule + "|" + f.file + "|" + f.function + "|" + f.message;
    const size_t ordinal = ordinals[key]++;
    f.fingerprint =
        HexFingerprint(Fnv1a64(key + "|" + std::to_string(ordinal)));
    findings_.push_back(std::move(f));
  }

  std::sort(findings_.begin(), findings_.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
}

void Analyzer::ApplyBaseline(const std::vector<BaselineEntry>& baseline,
                             std::vector<BaselineEntry>* stale) {
  std::unordered_map<std::string, const BaselineEntry*> by_fp;
  for (const BaselineEntry& e : baseline) {
    by_fp.emplace(e.fingerprint, &e);
  }
  std::unordered_set<std::string> matched;
  for (Finding& f : findings_) {
    auto it = by_fp.find(f.fingerprint);
    if (it == by_fp.end()) continue;
    matched.insert(f.fingerprint);
    if (!f.suppressed) {
      f.suppressed = true;
      f.suppress_reason = "baseline: " + it->second->rationale;
    }
  }
  if (stale != nullptr) {
    for (const BaselineEntry& e : baseline) {
      if (matched.count(e.fingerprint) == 0) {
        stale->push_back(e);
      }
    }
  }
}

std::string FormatBaseline(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "# drtm-lint baseline v1\n"
      << "# <fingerprint> <rule> <file> :: <rationale>\n";
  for (const Finding& f : findings) {
    if (f.suppressed) continue;
    out << f.fingerprint << " " << f.rule << " " << f.file
        << " :: TODO: rationale\n";
  }
  return out.str();
}

bool ParseBaseline(const std::string& text, std::vector<BaselineEntry>* out,
                   std::string* error) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t p = line.find_first_not_of(" \t");
    if (p == std::string::npos || line[p] == '#') continue;
    std::istringstream fields(line);
    BaselineEntry entry;
    std::string sep;
    if (!(fields >> entry.fingerprint >> entry.rule >> entry.file >> sep) ||
        sep != "::") {
      if (error != nullptr) {
        *error = "baseline line " + std::to_string(lineno) +
                 ": expected '<fingerprint> <rule> <file> :: <rationale>'";
      }
      return false;
    }
    std::getline(fields, entry.rationale);
    const size_t r = entry.rationale.find_first_not_of(" \t");
    entry.rationale =
        r == std::string::npos ? "" : entry.rationale.substr(r);
    if (entry.fingerprint.size() != 16 || !IsRuleId(entry.rule, 0)) {
      if (error != nullptr) {
        *error = "baseline line " + std::to_string(lineno) +
                 ": malformed fingerprint or rule id";
      }
      return false;
    }
    if (entry.rationale.empty()) {
      if (error != nullptr) {
        *error = "baseline line " + std::to_string(lineno) +
                 ": every allowlist entry must carry a rationale";
      }
      return false;
    }
    out->push_back(std::move(entry));
  }
  return true;
}

bool LoadBaselineFile(const std::string& path,
                      std::vector<BaselineEntry>* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read baseline '" + path + "'";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseBaseline(buf.str(), out, error);
}

stat::Json Analyzer::ReportJson() const {
  static const char* const kRules[] = {"TX01", "TX02", "TX03", "TX04",
                                       "EL01", "EL02", "LS01", "LS02",
                                       "CP01"};
  stat::Json root = stat::Json::Object();
  root.Set("schema_version", stat::Json::Number(2));
  root.Set("report", stat::Json::Str("drtm_lint"));
  root.Set("title",
           stat::Json::Str("HTM transaction-discipline, elastic-hook, "
                           "lock-subscription and chaos-coverage findings"));
  stat::Json config = stat::Json::Object();
  config.Set("files", stat::Json::Str(std::to_string(files_.size())));
  {
    std::string rules;
    for (const char* rule : kRules) {
      if (!rules.empty()) rules += ",";
      rules += rule;
    }
    config.Set("rules", stat::Json::Str(rules));
  }
  root.Set("config", std::move(config));

  stat::Json arr = stat::Json::Array();
  std::map<std::string, uint64_t> counters;
  counters["lint.files"] = files_.size();
  counters["lint.findings.total"] = findings_.size();
  counters["lint.findings.suppressed"] = 0;
  counters["lint.findings.unsuppressed"] = 0;
  counters["lint.chaos_points"] = chaos_catalog_.size();
  for (const char* rule : kRules) {
    counters[std::string("lint.") + rule] = 0;
  }
  for (const Finding& f : findings_) {
    stat::Json item = stat::Json::Object();
    item.Set("rule", stat::Json::Str(f.rule));
    item.Set("file", stat::Json::Str(f.file));
    item.Set("line", stat::Json::Number(f.line));
    item.Set("message", stat::Json::Str(f.message));
    item.Set("context", stat::Json::Str(f.context));
    item.Set("function", stat::Json::Str(f.function));
    item.Set("fingerprint", stat::Json::Str(f.fingerprint));
    item.Set("suppressed", stat::Json::Bool(f.suppressed));
    if (f.suppressed) {
      item.Set("reason", stat::Json::Str(f.suppress_reason));
    }
    arr.Append(std::move(item));
    ++counters["lint." + f.rule];
    ++counters[f.suppressed ? "lint.findings.suppressed"
                            : "lint.findings.unsuppressed"];
  }
  root.Set("findings", std::move(arr));
  stat::Json catalog = stat::Json::Array();
  for (const std::string& point : chaos_catalog_) {
    catalog.Append(stat::Json::Str(point));
  }
  root.Set("chaos_point_catalog", std::move(catalog));
  stat::Json cj = stat::Json::Object();
  for (const auto& [name, value] : counters) {
    cj.Set(name, stat::Json::Number(value));
  }
  root.Set("counters", std::move(cj));
  return root;
}

bool ReadCompileCommands(const std::string& path,
                         std::vector<std::string>* files) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  stat::Json db;
  if (!stat::Json::Parse(buf.str(), &db) || !db.is_array()) return false;
  for (size_t i = 0; i < db.size(); ++i) {
    const stat::Json* file = db.at(i).Find("file");
    if (file != nullptr && file->is_string()) {
      files->push_back(file->AsString());
    }
  }
  return true;
}

}  // namespace lint
}  // namespace drtm
