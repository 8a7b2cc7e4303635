// mpicp_lint — the project's invariant checker.
//
// A standalone static-analysis pass (own lightweight tokenizer, no
// libclang) that walks src/, tests/, bench/ and examples/ and enforces
// the conventions the reproduction's determinism guarantees rest on:
// all randomness through support/rng, all threading through
// support/parallel, no wall-clock reads outside the tracing layer, no
// stray output in library code, structured error raising, no exact
// floating-point comparisons, header hygiene, [[nodiscard]] on
// health-report APIs, and no per-iteration heap allocation in the hot
// fit/predict paths. See DESIGN.md §10 for the rule catalogue.
//
// Diagnostics are machine readable — `file:line: [rule-id] message` —
// and the process exits non-zero on any finding that is neither
// suppressed inline (`// mpicp-lint: allow(rule-id)`) nor listed in the
// baseline file.
//
// This tool is deliberately dependency-free (std only) so it can be
// built and run before any of the project libraries compile.

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Rule identifiers (the `[rule-id]` in diagnostics and in allow(...)).
// ---------------------------------------------------------------------
constexpr const char* kRuleRand = "no-raw-rand";          // R1
constexpr const char* kRuleThread = "no-raw-thread";      // R2
constexpr const char* kRuleWallClock = "no-wall-clock";   // R3
constexpr const char* kRuleStdout = "no-stdout";          // R4
constexpr const char* kRuleThrow = "no-bare-throw";       // R5
constexpr const char* kRuleFloatEq = "no-float-eq";       // R6
constexpr const char* kRuleHeader = "header-hygiene";     // R7
constexpr const char* kRuleNodiscard = "nodiscard-report";// R8
constexpr const char* kRuleAllocLoop = "no-alloc-in-loop";// R9
constexpr const char* kRuleSpan = "span-coverage";        // R10
constexpr const char* kRuleIwyu =
    "include-what-you-use-lite";                          // R11
constexpr const char* kRuleLayerDag = "layer-dag";        // R12
constexpr const char* kRuleLockDiscipline =
    "lock-discipline";                                    // R13
constexpr const char* kRuleAtomicOrder =
    "atomic-order-audit";                                 // R14
constexpr const char* kRuleMetricsHandle =
    "metrics-static-handle";                              // R15

const std::set<std::string>& all_rules() {
  static const std::set<std::string> rules = {
      kRuleRand,    kRuleThread,  kRuleWallClock, kRuleStdout,
      kRuleThrow,   kRuleFloatEq, kRuleHeader,    kRuleNodiscard,
      kRuleAllocLoop, kRuleSpan,  kRuleIwyu,      kRuleLayerDag,
      kRuleLockDiscipline, kRuleAtomicOrder, kRuleMetricsHandle};
  return rules;
}

/// The project's include namespaces — quoted includes under these
/// prefixes resolve to headers at <root>/src/<path> (shared by R7c and
/// R11).
const std::vector<std::string>& project_include_prefixes() {
  static const std::vector<std::string> prefixes = {
      "support/", "simmpi/", "simnet/", "collbench/", "ml/", "tune/"};
  return prefixes;
}

struct Diagnostic {
  std::string file;  // root-relative, forward slashes
  std::size_t line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Diagnostic& o) const {
    return std::tie(file, line, rule, message) <
           std::tie(o.file, o.line, o.rule, o.message);
  }
};

// ---------------------------------------------------------------------
// Lexing: split a translation unit into per-line code (comments and
// string/char literal bodies blanked out) plus per-line comment text
// (for suppression markers). The state machine spans lines, so block
// comments and multi-line raw strings are handled.
// ---------------------------------------------------------------------
struct LexedFile {
  std::vector<std::string> code;     // 0-based; literals/comments blanked
  std::vector<std::string> comment;  // comment text per line
};

LexedFile lex(const std::vector<std::string>& lines) {
  LexedFile out;
  out.code.resize(lines.size());
  out.comment.resize(lines.size());

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar,
                     kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& s = lines[li];
    std::string& code = out.code[li];
    std::string& comment = out.comment[li];
    code.reserve(s.size());
    if (state == State::kLineComment) state = State::kCode;

    for (std::size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      const char next = i + 1 < s.size() ? s[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            state = State::kLineComment;
            comment.append(s.substr(i + 2));
            i = s.size();  // rest of line is comment
            break;
          }
          if (c == '/' && next == '*') {
            state = State::kBlockComment;
            code.append("  ");
            ++i;
            break;
          }
          if (c == '"') {
            // Raw string? Look back for R (also LR/uR/u8R...).
            if (i > 0 && s[i - 1] == 'R') {
              std::size_t close = s.find('(', i + 1);
              if (close != std::string::npos) {
                raw_delim.assign(")").append(s, i + 1, close - i - 1);
                raw_delim.push_back('"');
                state = State::kRawString;
                code.append(s.size() - i, ' ');  // blank to EOL; loop below
                // Check whether the raw string closes on this line.
                std::size_t end = s.find(raw_delim, close);
                if (end != std::string::npos) {
                  state = State::kCode;
                  code.resize(i);
                  code.append(end + raw_delim.size() - i, ' ');
                  i = end + raw_delim.size() - 1;
                } else {
                  i = s.size();
                }
                break;
              }
            }
            state = State::kString;
            code.push_back(' ');
            break;
          }
          if (c == '\'') {
            state = State::kChar;
            code.push_back(' ');
            break;
          }
          code.push_back(c);
          break;
        case State::kString:
          if (c == '\\') { code.append("  "); ++i; break; }
          if (c == '"') state = State::kCode;
          code.push_back(' ');
          break;
        case State::kChar:
          if (c == '\\') { code.append("  "); ++i; break; }
          if (c == '\'') state = State::kCode;
          code.push_back(' ');
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            code.append("  ");
            ++i;
          } else {
            comment.push_back(c);
            code.push_back(' ');
          }
          break;
        case State::kRawString: {
          std::size_t end = s.find(raw_delim, i);
          if (end != std::string::npos) {
            state = State::kCode;
            code.append(end + raw_delim.size() - i, ' ');
            i = end + raw_delim.size() - 1;
          } else {
            code.append(s.size() - i, ' ');
            i = s.size();
          }
          break;
        }
        case State::kLineComment:
          break;  // unreachable; line comments consume the line above
      }
    }
    // Unterminated single-line states do not leak across lines.
    if (state == State::kString || state == State::kChar) {
      state = State::kCode;
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Tokens: identifiers, numbers and single punctuation characters, with
// their line-local column. Enough structure for every rule below.
// ---------------------------------------------------------------------
struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind;
  std::string text;
  std::size_t col = 0;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> toks;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (std::isspace(static_cast<unsigned char>(c))) { ++i; continue; }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < code.size() && ident_char(code[j])) ++j;
      toks.push_back({Token::Kind::kIdent, code.substr(i, j - i), i});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < code.size() &&
         std::isdigit(static_cast<unsigned char>(code[i + 1])))) {
      std::size_t j = i;
      // pp-number: digits, dots, ident chars, exponent signs.
      while (j < code.size() &&
             (ident_char(code[j]) || code[j] == '.' ||
              ((code[j] == '+' || code[j] == '-') && j > i &&
               (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                code[j - 1] == 'p' || code[j - 1] == 'P')))) {
        ++j;
      }
      toks.push_back({Token::Kind::kNumber, code.substr(i, j - i), i});
      i = j;
      continue;
    }
    // Two-character comparison operators matter for no-float-eq.
    if ((c == '=' || c == '!') && i + 1 < code.size() &&
        code[i + 1] == '=') {
      toks.push_back({Token::Kind::kPunct, code.substr(i, 2), i});
      i += 2;
      continue;
    }
    toks.push_back({Token::Kind::kPunct, std::string(1, c), i});
    ++i;
  }
  return toks;
}

bool is_float_literal(const Token& t) {
  if (t.kind != Token::Kind::kNumber) return false;
  const std::string& s = t.text;
  if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    return s.find('p') != std::string::npos ||
           s.find('P') != std::string::npos;  // hex float
  }
  return s.find('.') != std::string::npos ||
         s.find('e') != std::string::npos ||
         s.find('E') != std::string::npos;
}

// ---------------------------------------------------------------------
// Suppressions: `// mpicp-lint: allow(rule-a, rule-b)` on a line
// suppresses those rules there; on a line of its own it suppresses them
// on the next line with code. `allow(all)` suppresses every rule.
// ---------------------------------------------------------------------
std::map<std::size_t, std::set<std::string>> collect_suppressions(
    const std::vector<std::string>& comments,
    const std::vector<std::string>& code,
    std::vector<Diagnostic>* diags, const std::string& rel) {
  std::map<std::size_t, std::set<std::string>> allow;  // 1-based line
  static const std::regex marker(
      R"(mpicp-lint:\s*allow\(([A-Za-z0-9_,\- ]*)\))");
  for (std::size_t li = 0; li < comments.size(); ++li) {
    std::smatch m;
    if (!std::regex_search(comments[li], m, marker)) continue;
    std::set<std::string> rules;
    std::stringstream ss(m[1].str());
    std::string id;
    while (std::getline(ss, id, ',')) {
      id.erase(std::remove_if(id.begin(), id.end(), ::isspace), id.end());
      if (id.empty()) continue;
      if (id != "all" && !all_rules().count(id)) {
        diags->push_back({rel, li + 1, kRuleHeader,
                          "unknown rule '" + id +
                              "' in mpicp-lint: allow(...)"});
        continue;
      }
      rules.insert(id);
    }
    const bool own_line =
        code[li].find_first_not_of(" \t") == std::string::npos;
    std::size_t target = li + 1;           // this line, 1-based
    if (own_line) {
      // Applies to the next line carrying code.
      std::size_t j = li + 1;
      while (j < code.size() &&
             code[j].find_first_not_of(" \t") == std::string::npos) {
        ++j;
      }
      target = j + 1;
    }
    allow[target].insert(rules.begin(), rules.end());
  }
  return allow;
}

// ---------------------------------------------------------------------
// Path role classification.
// ---------------------------------------------------------------------
bool starts_with(const std::string& s, std::string_view prefix) {
  return s.rfind(prefix, 0) == 0;
}

struct FileRole {
  bool in_src = false;
  bool is_header = false;
  bool rng_impl = false;       // src/support/rng.*
  bool parallel_impl = false;  // src/support/parallel.*
  bool trace_impl = false;     // src/support/trace.*
  bool metrics_impl = false;   // src/support/metrics.*
  bool error_impl = false;     // src/support/error.hpp
  bool bench = false;          // bench/** (timing mains)
  bool alloc_hot = false;      // src/ml/**, src/tune/** (hot loops)
  bool span_scope = false;     // src/tune/**, src/simmpi/** .cpp files
};

FileRole classify(const std::string& rel) {
  FileRole role;
  role.in_src = starts_with(rel, "src/");
  role.alloc_hot =
      starts_with(rel, "src/ml/") || starts_with(rel, "src/tune/");
  role.is_header = rel.size() > 4 &&
                   rel.compare(rel.size() - 4, 4, ".hpp") == 0;
  role.span_scope =
      !role.is_header && (starts_with(rel, "src/tune/") ||
                          starts_with(rel, "src/simmpi/"));
  role.rng_impl = starts_with(rel, "src/support/rng.");
  role.parallel_impl = starts_with(rel, "src/support/parallel.");
  role.trace_impl = starts_with(rel, "src/support/trace.");
  role.metrics_impl = starts_with(rel, "src/support/metrics.");
  role.error_impl = rel == "src/support/error.hpp";
  role.bench = starts_with(rel, "bench/");
  return role;
}

// ---------------------------------------------------------------------
// The rules.
// ---------------------------------------------------------------------
void check_tokens(const std::string& rel, const FileRole& role,
                  const std::vector<std::vector<Token>>& lines,
                  std::vector<Diagnostic>* diags) {
  static const std::set<std::string> kRandIdents = {
      "rand",          "srand",         "rand_r",
      "drand48",       "random_device", "mt19937",
      "mt19937_64",    "minstd_rand",   "minstd_rand0",
      "default_random_engine", "random_shuffle"};
  static const std::set<std::string> kWallClockIdents = {
      "system_clock", "gettimeofday", "localtime", "gmtime", "strftime"};

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::vector<Token>& toks = lines[li];
    for (std::size_t t = 0; t < toks.size(); ++t) {
      const Token& tok = toks[t];
      const bool after_std_scope =
          t >= 2 && toks[t - 1].text == ":" && toks[t - 2].text == ":";
      const bool member_access =
          t >= 1 && (toks[t - 1].text == "." || toks[t - 1].text == ">");
      const bool called =
          t + 1 < toks.size() && toks[t + 1].text == "(";

      // R1 — randomness primitives outside support/rng.
      if (!role.rng_impl && tok.kind == Token::Kind::kIdent &&
          kRandIdents.count(tok.text) && !member_access) {
        // `rand`/`srand` only count as the C functions when called.
        const bool c_function = tok.text == "rand" || tok.text == "srand";
        if (!c_function || called) {
          diags->push_back(
              {rel, li + 1, kRuleRand,
               "non-deterministic randomness primitive '" + tok.text +
                   "' — route all randomness through support/rng"});
        }
      }

      // R2 — raw concurrency primitives outside support/parallel.
      if (!role.parallel_impl && tok.kind == Token::Kind::kIdent) {
        if ((tok.text == "thread" || tok.text == "jthread" ||
             tok.text == "async") &&
            after_std_scope && t >= 3 && toks[t - 3].text == "std") {
          diags->push_back(
              {rel, li + 1, kRuleThread,
               "raw concurrency primitive 'std::" + tok.text +
                   "' — use support/parallel (parallel_for/ThreadPool)"});
        } else if (tok.text == "pthread_create" && called) {
          diags->push_back({rel, li + 1, kRuleThread,
                            "raw concurrency primitive 'pthread_create' — "
                            "use support/parallel"});
        } else if (tok.text == "detach" && member_access && called) {
          diags->push_back({rel, li + 1, kRuleThread,
                            "detached thread — threads must be owned by "
                            "the support/parallel pool"});
        }
      }

      // R3 — wall-clock time sources outside support/trace and bench.
      if (!role.trace_impl && !role.bench &&
          tok.kind == Token::Kind::kIdent && !member_access) {
        if (kWallClockIdents.count(tok.text) ||
            ((tok.text == "time" || tok.text == "clock") && called &&
             !after_std_scope)) {
          // `time(`/`clock(` as free calls; named clocks always.
          diags->push_back(
              {rel, li + 1, kRuleWallClock,
               "wall-clock time source '" + tok.text +
                   "' — timing belongs to support/trace (or bench mains)"});
        } else if ((tok.text == "time" || tok.text == "clock") &&
                   after_std_scope && t >= 3 &&
                   toks[t - 3].text == "std" && called) {
          diags->push_back(
              {rel, li + 1, kRuleWallClock,
               "wall-clock time source 'std::" + tok.text +
                   "' — timing belongs to support/trace (or bench mains)"});
        }
      }

      // R4 — stdout writes in library code.
      if (role.in_src && tok.kind == Token::Kind::kIdent) {
        if (tok.text == "cout" && after_std_scope && t >= 3 &&
            toks[t - 3].text == "std") {
          diags->push_back({rel, li + 1, kRuleStdout,
                            "std::cout in library code — emit through "
                            "support/table or support/metrics exporters"});
        } else if ((tok.text == "printf" || tok.text == "puts" ||
                    tok.text == "putchar" || tok.text == "fprintf") &&
                   called && !member_access) {
          diags->push_back({rel, li + 1, kRuleStdout,
                            "'" + tok.text +
                                "' in library code — emit through "
                                "support/table or support/metrics"});
        }
      }

      // R5 — bare throw in library code (rethrow `throw;` is allowed).
      if (role.in_src && !role.error_impl &&
          tok.kind == Token::Kind::kIdent && tok.text == "throw") {
        const bool rethrow =
            t + 1 < toks.size() && toks[t + 1].text == ";";
        if (!rethrow) {
          diags->push_back({rel, li + 1, kRuleThrow,
                            "bare throw — raise through the "
                            "support/error.hpp macros (MPICP_REQUIRE / "
                            "MPICP_ASSERT / MPICP_CHECK_PARSE / "
                            "MPICP_RAISE_*)"});
        }
      }

      // R6 — exact floating-point comparison (literal operand).
      if (tok.kind == Token::Kind::kPunct &&
          (tok.text == "==" || tok.text == "!=")) {
        const Token* lhs = t > 0 ? &toks[t - 1] : nullptr;
        const Token* rhs = t + 1 < toks.size() ? &toks[t + 1] : nullptr;
        // Allow a leading unary minus on the right literal.
        const Token* rhs2 =
            (rhs && rhs->text == "-" && t + 2 < toks.size())
                ? &toks[t + 2]
                : nullptr;
        if ((lhs && is_float_literal(*lhs)) ||
            (rhs && is_float_literal(*rhs)) ||
            (rhs2 && is_float_literal(*rhs2))) {
          diags->push_back(
              {rel, li + 1, kRuleFloatEq,
               "exact floating-point comparison against a literal — "
               "compare with a tolerance, or justify with an inline "
               "allow(no-float-eq)"});
        }
      }
    }
  }
}

void check_header(const std::string& rel,
                  const std::vector<std::string>& code,
                  std::vector<Diagnostic>* diags) {
  // R7a — #pragma once before any other preprocessor/code line.
  bool pragma_seen = false;
  bool code_before_pragma = false;
  std::size_t first_code_line = 0;
  for (std::size_t li = 0; li < code.size(); ++li) {
    std::string trimmed = code[li];
    trimmed.erase(0, trimmed.find_first_not_of(" \t"));
    if (trimmed.empty()) continue;
    if (starts_with(trimmed, "#pragma") &&
        trimmed.find("once") != std::string::npos) {
      pragma_seen = true;
      break;
    }
    if (!code_before_pragma) {
      code_before_pragma = true;
      first_code_line = li + 1;
    }
  }
  if (!pragma_seen) {
    diags->push_back({rel, 1, kRuleHeader,
                      "header missing #pragma once"});
  } else if (code_before_pragma) {
    diags->push_back({rel, first_code_line, kRuleHeader,
                      "code before #pragma once (the guard must be the "
                      "first non-comment line)"});
  }

  // R7b/R7c — duplicate includes; project headers via quotes.
  static const std::regex inc(R"(^\s*#\s*include\s*([<"])([^>"]+)[>"])");
  const std::vector<std::string>& project_prefixes =
      project_include_prefixes();
  std::map<std::string, std::size_t> seen;
  for (std::size_t li = 0; li < code.size(); ++li) {
    std::smatch m;
    if (!std::regex_search(code[li], m, inc)) continue;
    const std::string path = m[2].str();
    auto [it, inserted] = seen.emplace(path, li + 1);
    if (!inserted) {
      diags->push_back({rel, li + 1, kRuleHeader,
                        "duplicate #include of '" + path +
                            "' (first at line " +
                            std::to_string(it->second) + ")"});
    }
    if (m[1].str() == "<") {
      for (const std::string& p : project_prefixes) {
        if (starts_with(path, p)) {
          diags->push_back({rel, li + 1, kRuleHeader,
                            "project header '" + path +
                                "' included with <> — use quotes"});
          break;
        }
      }
    }
  }
}

void check_nodiscard(const std::string& rel,
                     const std::vector<std::string>& code,
                     std::vector<Diagnostic>* diags) {
  // R8 — report/result-returning declarations must be [[nodiscard]].
  // Join the stripped code so declarations split across lines are seen;
  // remember each character's line for reporting.
  std::string joined;
  std::vector<std::size_t> line_of;
  for (std::size_t li = 0; li < code.size(); ++li) {
    joined += code[li];
    joined += '\n';
    line_of.resize(joined.size(), li + 1);
  }
  static const std::regex decl(
      R"(([A-Za-z_][A-Za-z0-9_]*(?:Report|Result|Evaluation|Outcome))\s*)"
      R"(((?:<[^<>;(){}]*>)?\s*[&*]?\s*|>\s*[&*]?\s*))"
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
  for (auto it = std::sregex_iterator(joined.begin(), joined.end(), decl);
       it != std::sregex_iterator(); ++it) {
    const std::smatch& m = *it;
    const std::string type = m[1].str();
    const std::string name = m[4].str();
    if (name == type) continue;  // constructor-like
    // Keywords that show this is not a declaration (e.g. `return
    // SomeResult(...)`, `case`, comparisons).
    if (name == "return" || name == "sizeof" || name == "if" ||
        name == "while" || name == "for" || name == "switch") {
      continue;
    }
    const std::size_t pos = static_cast<std::size_t>(m.position(0));
    // Look back a bounded window for [[nodiscard]] on the declaration.
    const std::size_t window_start = pos > 160 ? pos - 160 : 0;
    std::string_view back(joined.data() + window_start, pos - window_start);
    // The window must not cross a statement/declaration boundary.
    const std::size_t boundary = back.find_last_of(";{}");
    if (boundary != std::string_view::npos) {
      back = back.substr(boundary + 1);
    }
    if (back.find("[[nodiscard]]") != std::string_view::npos) continue;
    if (back.find("using") != std::string_view::npos) continue;
    diags->push_back(
        {rel, line_of[pos], kRuleNodiscard,
         "'" + type + " " + name +
             "(...)' returns a health report/result — declare it "
             "[[nodiscard]] so callers cannot drop it silently"});
  }
}

// ---------------------------------------------------------------------
// R9 — no heap allocation inside hot loops (src/ml, src/tune).
//
// The serving and fitting paths are allocation-free by design
// (DESIGN.md §11): buffers are hoisted outside loops and containers are
// reserved up front. This pass joins the blanked code, finds loop
// bodies — `for`/`while`/`do` (including single-statement bodies) and
// the argument range of `parallel_for(...)` — and flags, inside them:
//   a) `new` / `make_unique` / `make_shared`,
//   b) `.push_back(` / `.emplace_back(` whose receiver identifier has
//      no `<ident>.reserve` or `reserve_more(<ident>, ...)` anywhere in
//      the file,
//   c) sized `std::vector<...> name(args...)` constructions, and
//   d) exact growth reserves `X.reserve(X.size() + n)`: each one sets
//      the capacity to exactly what the next append needs, so a pool
//      appended to once per iteration is copied whole every time
//      (quadratic). support::reserve_more grows geometrically instead.
// Receivers that cannot be resolved to an identifier (ternaries,
// call-chain results) are skipped rather than guessed at; genuinely
// unbounded loops justify themselves with allow(no-alloc-in-loop).
// ---------------------------------------------------------------------
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          const std::string& openc,
                          const std::string& closec) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == openc) {
      ++depth;
    } else if (toks[i].text == closec) {
      if (--depth == 0) return i;
    }
  }
  return toks.size() - 1;  // unmatched; clamp to EOF
}

/// Final identifier of the receiver of `.push_back` at token `dot`
/// (e.g. `rows[rec.uid].push_back` -> "rows", `config.rules.push_back`
/// -> "rules"). Empty when unresolvable.
std::string receiver_of(const std::vector<Token>& toks, std::size_t dot) {
  if (dot == 0) return "";
  std::size_t i = dot - 1;
  // Skip trailing balanced `[...]` index groups (possibly several).
  while (toks[i].text == "]") {
    int depth = 0;
    while (true) {
      if (toks[i].text == "]") ++depth;
      if (toks[i].text == "[" && --depth == 0) break;
      if (i == 0) return "";
      --i;
    }
    if (i == 0) return "";
    --i;
  }
  if (toks[i].kind != Token::Kind::kIdent) return "";
  return toks[i].text;
}

/// Index just past the member-access operator starting at toks[i]
/// (`.` or `->`), or 0 when none starts there.
std::size_t after_member_access(const std::vector<Token>& toks,
                                std::size_t i) {
  if (i < toks.size() && toks[i].text == ".") return i + 1;
  if (i + 1 < toks.size() && toks[i].text == "-" &&
      toks[i + 1].text == ">") {
    return i + 2;
  }
  return 0;
}

/// True when the argument list opening at toks[open] names
/// `recv.size()` / `recv->size()` and adds to something.
bool adds_to_own_size(const std::vector<Token>& toks, std::size_t open,
                      const std::string& recv) {
  const std::size_t close = match_forward(toks, open, "(", ")");
  bool own_size = false;
  bool adds = false;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].text == "+") adds = true;
    if (toks[i].text != recv) continue;
    const std::size_t j = after_member_access(toks, i + 1);
    if (j != 0 && j + 2 < close && toks[j].text == "size" &&
        toks[j + 1].text == "(" && toks[j + 2].text == ")") {
      own_size = true;
    }
  }
  return own_size && adds;
}

void check_alloc_in_loop(const std::string& rel,
                         const std::vector<std::string>& code,
                         std::vector<Diagnostic>* diags) {
  // Join the stripped code (as check_nodiscard does) so loops spanning
  // lines are seen as one token stream; remember each offset's line.
  std::string joined;
  std::vector<std::size_t> line_of;
  for (std::size_t li = 0; li < code.size(); ++li) {
    joined += code[li];
    joined += '\n';
    line_of.resize(joined.size(), li + 1);
  }
  const std::vector<Token> toks = tokenize(joined);
  if (toks.empty()) return;

  // Pass 1: mark the token ranges that execute per loop iteration.
  std::vector<char> in_loop(toks.size(), 0);
  const auto mark = [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i <= e && i < toks.size(); ++i) in_loop[i] = 1;
  };
  for (std::size_t t = 0; t < toks.size(); ++t) {
    const Token& tok = toks[t];
    if (tok.kind != Token::Kind::kIdent) continue;
    const bool paren_next =
        t + 1 < toks.size() && toks[t + 1].text == "(";
    if (tok.text == "parallel_for" && paren_next) {
      // The whole argument range: the body lambda runs per element.
      mark(t + 2, match_forward(toks, t + 1, "(", ")"));
    } else if ((tok.text == "for" || tok.text == "while") && paren_next) {
      const std::size_t close = match_forward(toks, t + 1, "(", ")");
      const std::size_t body = close + 1;
      if (body >= toks.size()) continue;
      if (toks[body].text == "{") {
        mark(body, match_forward(toks, body, "{", "}"));
      } else if (toks[body].text != ";") {
        // Single-statement body: up to the top-level terminating `;`.
        std::size_t e = body;
        int pd = 0;
        int bd = 0;
        for (; e < toks.size(); ++e) {
          const std::string& s = toks[e].text;
          if (s == "(") ++pd;
          if (s == ")") --pd;
          if (s == "{") ++bd;
          if (s == "}") --bd;
          if (s == ";" && pd == 0 && bd == 0) break;
        }
        mark(body, e);
      }
    } else if (tok.text == "do" && t + 1 < toks.size() &&
               toks[t + 1].text == "{") {
      mark(t + 1, match_forward(toks, t + 1, "{", "}"));
    }
  }

  // Receivers with a `<ident>.reserve` / `<ident>->reserve` or a
  // `reserve_more(<ident>, n)` anywhere in the file are considered
  // pre-sized.
  std::set<std::string> reserved;
  for (std::size_t t = 0; t + 2 < toks.size(); ++t) {
    if (toks[t].kind != Token::Kind::kIdent) continue;
    if (toks[t].text == "reserve_more" && toks[t + 1].text == "(") {
      // The receiver is the last token of the first argument.
      const std::size_t close = match_forward(toks, t + 1, "(", ")");
      int depth = 0;
      for (std::size_t i = t + 2; i < close; ++i) {
        const std::string& s = toks[i].text;
        if (s == "(" || s == "[" || s == "{") ++depth;
        if (s == ")" || s == "]" || s == "}") --depth;
        if (s == "," && depth == 0) {
          if (toks[i - 1].kind == Token::Kind::kIdent) {
            reserved.insert(toks[i - 1].text);
          }
          break;
        }
      }
    } else if (toks[t + 1].text == "." && toks[t + 2].text == "reserve") {
      reserved.insert(toks[t].text);
    } else if (t + 3 < toks.size() && toks[t + 1].text == "-" &&
               toks[t + 2].text == ">" && toks[t + 3].text == "reserve") {
      reserved.insert(toks[t].text);
    }
  }

  // Pass 2: flag allocations inside the marked ranges.
  for (std::size_t t = 0; t < toks.size(); ++t) {
    if (!in_loop[t]) continue;
    const Token& tok = toks[t];
    if (tok.kind != Token::Kind::kIdent) continue;
    const std::size_t line = line_of[tok.col];

    if (tok.text == "new" || tok.text == "make_unique" ||
        tok.text == "make_shared") {
      diags->push_back(
          {rel, line, kRuleAllocLoop,
           "'" + tok.text +
               "' inside a loop on a hot path — hoist the allocation "
               "out of the loop (DESIGN.md §11)"});
      continue;
    }

    if ((tok.text == "push_back" || tok.text == "emplace_back") &&
        t >= 1 && toks[t - 1].text == "." && t + 1 < toks.size() &&
        toks[t + 1].text == "(") {
      const std::string recv = receiver_of(toks, t - 1);
      if (!recv.empty() && !reserved.count(recv)) {
        diags->push_back(
            {rel, line, kRuleAllocLoop,
             "'" + recv + "." + tok.text +
                 "' inside a loop without a prior '" + recv +
                 ".reserve' — reserve the final capacity once before "
                 "the loop, grow with support::reserve_more(" + recv +
                 ", n) when it is appended to repeatedly, or justify "
                 "with allow(no-alloc-in-loop)"});
      }
      continue;
    }

    if (tok.text == "reserve" && t + 1 < toks.size() &&
        toks[t + 1].text == "(") {
      // `X.reserve(...)` / `X->reserve(...)` whose argument adds to
      // `X.size()` / `X->size()`.
      const std::size_t op = t >= 1 && toks[t - 1].text == "." ? t - 1
                             : t >= 2 && toks[t - 1].text == ">" &&
                                     toks[t - 2].text == "-"
                                 ? t - 2
                                 : 0;
      const std::string recv = op == 0 ? "" : receiver_of(toks, op);
      if (!recv.empty() && adds_to_own_size(toks, t + 1, recv)) {
        diags->push_back(
            {rel, line, kRuleAllocLoop,
             "'" + recv + ".reserve(" + recv +
                 ".size() + ...)' inside a loop reserves exactly, so "
                 "every append copies the whole pool (quadratic) — use "
                 "support::reserve_more(" + recv + ", n), or reserve once "
                 "before the loop"});
      }
      continue;
    }

    if (tok.text == "vector" && t + 1 < toks.size() &&
        toks[t + 1].text == "<") {
      // `std::vector<...> name(args)` / `std::vector<...>(args)` with a
      // non-empty argument list allocates per iteration.
      std::size_t i = t + 1;
      int depth = 0;
      for (; i < toks.size(); ++i) {
        if (toks[i].text == "<") ++depth;
        if (toks[i].text == ">" && --depth == 0) break;
      }
      if (i >= toks.size()) continue;
      std::size_t after = i + 1;
      if (after < toks.size() &&
          toks[after].kind == Token::Kind::kIdent) {
        ++after;  // declared name
      }
      if (after < toks.size() && toks[after].text == "(" &&
          after + 1 < toks.size() && toks[after + 1].text != ")") {
        diags->push_back(
            {rel, line, kRuleAllocLoop,
             "sized std::vector constructed inside a loop — hoist the "
             "buffer and use assign()/resize() to reuse its capacity"});
      }
    }
  }
}

// ---------------------------------------------------------------------
// R10 — span coverage in the serving and simulation layers.
//
// Every .cpp under src/tune/ and src/simmpi/ that defines a non-trivial
// function (body spanning >= kSpanBodyLines source lines) must contain
// at least one MPICP_SPAN, so the observability layer sees where those
// subsystems spend their time. One finding per uncovered file, anchored
// at its first non-trivial definition. Files of short helpers are
// exempt; a file that is deliberately span-free justifies itself with
// allow(span-coverage) on that definition.
// ---------------------------------------------------------------------
constexpr std::size_t kSpanBodyLines = 15;

void check_span_coverage(const std::string& rel,
                         const std::vector<std::string>& code,
                         std::vector<Diagnostic>* diags) {
  std::string joined;
  std::vector<std::size_t> line_of;
  for (std::size_t li = 0; li < code.size(); ++li) {
    joined += code[li];
    joined += '\n';
    line_of.resize(joined.size(), li + 1);
  }
  const std::vector<Token> toks = tokenize(joined);

  static const std::set<std::string> kNotAFunction = {
      "if",     "for",    "while",  "switch", "catch",
      "return", "sizeof", "do",     "else",   "new"};
  static const std::set<std::string> kTrailer = {"const", "noexcept",
                                                 "override", "final"};
  for (std::size_t t = 0; t < toks.size(); ++t) {
    if (toks[t].kind == Token::Kind::kIdent &&
        toks[t].text == "MPICP_SPAN") {
      return;  // covered
    }
  }
  for (std::size_t t = 0; t < toks.size(); ++t) {
    const Token& tok = toks[t];
    if (tok.kind != Token::Kind::kIdent || kNotAFunction.count(tok.text)) {
      continue;
    }
    if (t + 1 >= toks.size() || toks[t + 1].text != "(") continue;
    const std::size_t close = match_forward(toks, t + 1, "(", ")");
    // `name(args) [const|noexcept|override|final]* {` — the shape of a
    // function definition. Constructors with init lists and trailing
    // return types are not matched; under-detection only exempts, never
    // flags.
    std::size_t j = close + 1;
    while (j < toks.size() && kTrailer.count(toks[j].text)) ++j;
    if (j >= toks.size() || toks[j].text != "{") continue;
    const std::size_t end = match_forward(toks, j, "{", "}");
    const std::size_t body_lines =
        line_of[toks[end].col] - line_of[toks[j].col] + 1;
    if (body_lines < kSpanBodyLines) continue;
    diags->push_back(
        {rel, line_of[tok.col], kRuleSpan,
         "'" + tok.text + "' spans " + std::to_string(body_lines) +
             " lines but the file has no MPICP_SPAN — trace the entry "
             "points of this subsystem (support/trace.hpp)"});
    return;  // one finding per uncovered file
  }
}

// ---------------------------------------------------------------------
// R11 — include-what-you-use-lite for project headers.
//
// Every quoted project include (`#include "tune/x.hpp"` under the
// prefixes of project_include_prefixes()) must provide at least one
// symbol the including file actually names. "Symbols provided" is a
// deliberately lenient harvest of the header's declarations — type
// names after class/struct/enum, #define names, `using X =` aliases,
// and identifiers that look like functions or constants — so
// over-collection can only exempt an include, never flag a used one.
// Includes whose header cannot be resolved under <root>/src are
// skipped, as is a .cpp file's own header (included for its definition,
// not its symbols).
//
// The include PATH is parsed from the raw source line: the lexer blanks
// string-literal bodies, so the lexed line only confirms the directive
// is real code (not inside a comment).
// ---------------------------------------------------------------------

/// Identifiers too generic to witness a header's use: C++ keywords,
/// fixed-width typedef names and ubiquitous std vocabulary. Harvested
/// symbols and usage witnesses are both filtered through this.
bool iwyu_generic_ident(const std::string& s) {
  static const std::set<std::string> kGeneric = {
      // keywords
      "alignas", "alignof", "auto", "bool", "break", "case", "catch",
      "char", "class", "const", "constexpr", "const_cast", "continue",
      "decltype", "default", "delete", "do", "double", "dynamic_cast",
      "else", "enum", "explicit", "extern", "false", "final", "float",
      "for", "friend", "goto", "if", "inline", "int", "long", "mutable",
      "namespace", "new", "noexcept", "nullptr", "operator", "override",
      "private", "protected", "public", "reinterpret_cast", "requires",
      "return", "short", "signed", "sizeof", "static", "static_assert",
      "static_cast", "struct", "switch", "template", "this",
      "thread_local", "throw", "true", "try", "typedef", "typeid",
      "typename", "union", "unsigned", "using", "virtual", "void",
      "volatile", "while",
      // ubiquitous std vocabulary and fixed-width names
      "std", "size_t", "ptrdiff_t", "int8_t", "int16_t", "int32_t",
      "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "string",
      "string_view", "vector", "map", "set", "pair", "tuple", "span",
      "optional", "shared_ptr", "unique_ptr", "function", "size", "begin",
      "end", "empty", "clear", "data", "first", "second", "push_back",
      "emplace_back", "reserve", "resize", "find", "count", "insert",
      "erase", "min", "max", "abs", "get", "value", "front", "back"};
  return s.size() <= 2 || kGeneric.count(s) > 0;
}

/// Harvest the symbols a header provides (see the R11 comment above).
std::set<std::string> iwyu_header_symbols(const fs::path& abs) {
  std::set<std::string> symbols;
  std::ifstream in(abs);
  if (!in) return symbols;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  const LexedFile lexed = lex(lines);
  std::string joined;
  for (const std::string& code : lexed.code) {
    joined += code;
    joined += '\n';
  }
  const std::vector<Token> toks = tokenize(joined);
  const auto harvest = [&](const std::string& s) {
    if (!iwyu_generic_ident(s)) symbols.insert(s);
  };
  for (std::size_t t = 0; t < toks.size(); ++t) {
    const Token& tok = toks[t];
    if (tok.kind != Token::Kind::kIdent) continue;
    // Type names: `class X` / `struct X` / `enum X` / `enum class X`.
    if (tok.text == "class" || tok.text == "struct" ||
        tok.text == "enum") {
      std::size_t j = t + 1;
      if (j < toks.size() &&
          (toks[j].text == "class" || toks[j].text == "struct")) {
        ++j;  // enum class
      }
      if (j < toks.size() && toks[j].kind == Token::Kind::kIdent) {
        harvest(toks[j].text);
      }
      continue;
    }
    // Macro names: `#define X`.
    if (tok.text == "define" && t >= 1 && toks[t - 1].text == "#" &&
        t + 1 < toks.size() &&
        toks[t + 1].kind == Token::Kind::kIdent) {
      harvest(toks[t + 1].text);
      continue;
    }
    // Aliases: `using X = ...`.
    if (tok.text == "using" && t + 2 < toks.size() &&
        toks[t + 1].kind == Token::Kind::kIdent &&
        toks[t + 2].text == "=") {
      harvest(toks[t + 1].text);
      continue;
    }
    // Function-ish (`name(`), constant-ish (`name =`) and array-ish
    // (`name[`) declarations — lenient on purpose; includes local names
    // in inline bodies, which only widens the "used" net.
    if (t + 1 < toks.size() &&
        (toks[t + 1].text == "(" || toks[t + 1].text == "=" ||
         toks[t + 1].text == "[")) {
      harvest(tok.text);
    }
  }
  return symbols;
}

/// Cache of iwyu_header_symbols keyed by resolved header path (one
/// parse per header per run, shared across every including file).
using IwyuCache = std::map<std::string, std::set<std::string>>;

void check_iwyu(const std::string& rel,
                const std::vector<std::string>& raw,
                const LexedFile& lexed, const fs::path& root,
                IwyuCache* cache, std::vector<Diagnostic>* diags) {
  static const std::regex inc_raw(R"(^\s*#\s*include\s*"([^"]+)\")");
  // The lexer blanks string literals *including* their quotes, so the
  // live-code check can only look for the directive itself.
  static const std::regex inc_code(R"(^\s*#\s*include\b)");

  // A .cpp's own header is included for its definitions, not symbols.
  std::string own;
  if (starts_with(rel, "src/") && rel.size() > 8 &&
      rel.compare(rel.size() - 4, 4, ".cpp") == 0) {
    own = rel.substr(4, rel.size() - 8) + ".hpp";
  }

  // The identifiers this file names (filtered like the harvest side).
  std::set<std::string> used;
  for (const std::string& code : lexed.code) {
    for (const Token& tok : tokenize(code)) {
      if (tok.kind == Token::Kind::kIdent &&
          !iwyu_generic_ident(tok.text)) {
        used.insert(tok.text);
      }
    }
  }

  for (std::size_t li = 0; li < raw.size(); ++li) {
    // The lexed line proves the directive is live code; the raw line
    // carries the path the lexer blanked.
    if (!std::regex_search(lexed.code[li], inc_code)) continue;
    std::smatch m;
    if (!std::regex_search(raw[li], m, inc_raw)) continue;
    const std::string path = m[1].str();
    bool project = false;
    for (const std::string& p : project_include_prefixes()) {
      if (starts_with(path, p)) {
        project = true;
        break;
      }
    }
    if (!project || path == own) continue;
    const fs::path header = root / "src" / path;
    auto it = cache->find(header.string());
    if (it == cache->end()) {
      it = cache->emplace(header.string(), iwyu_header_symbols(header))
               .first;
    }
    const std::set<std::string>& provided = it->second;
    if (provided.empty()) continue;  // unresolvable or declaration-free
    bool witnessed = false;
    for (const std::string& sym : provided) {
      if (used.count(sym)) {
        witnessed = true;
        break;
      }
    }
    if (!witnessed) {
      diags->push_back(
          {rel, li + 1, kRuleIwyu,
           "include of '" + path +
               "' provides no symbol this file names — drop the "
               "include (or justify with allow(" +
               std::string(kRuleIwyu) + "))"});
    }
  }
}

// ---------------------------------------------------------------------
// R12 — the layer DAG (whole-program, two-phase).
//
// The project layers form a DAG (DESIGN.md §15):
//
//   support -> {ml, simnet} -> {simmpi, collbench} -> tune
//           -> {tools, bench, examples, tests}
//
// Phase 1 walks every file once and records its project includes (the
// include graph). Phase 2 then flags
//   a) upward includes — a file whose layer ranks lower than the layer
//      of a header it includes (same-rank sibling includes are fine:
//      collbench legitimately uses simmpi), and
//   b) include cycles — a DFS over the file-level graph, visited in
//      sorted order so the report is deterministic; each cycle is
//      reported once, anchored at the include edge that closes it.
// Findings honour the including file's allow(layer-dag) suppressions
// like any per-file rule.
// ---------------------------------------------------------------------
struct IncludeEdge {
  std::string path;      // as written, e.g. "tune/registry.hpp"
  std::size_t line = 0;  // 1-based
};

/// rel -> project includes, for every walked file.
using IncludeGraph = std::map<std::string, std::vector<IncludeEdge>>;

int layer_rank(const std::string& rel) {
  if (starts_with(rel, "src/support/")) return 0;
  if (starts_with(rel, "src/ml/") || starts_with(rel, "src/simnet/")) {
    return 1;
  }
  if (starts_with(rel, "src/simmpi/") ||
      starts_with(rel, "src/collbench/")) {
    return 2;
  }
  if (starts_with(rel, "src/tune/")) return 3;
  return 4;  // tools, bench, examples, tests: free to use every layer
}

const char* layer_name(int rank) {
  switch (rank) {
    case 0: return "support";
    case 1: return "ml/simnet";
    case 2: return "simmpi/collbench";
    case 3: return "tune";
    default: return "the leaf layer (tools/bench/examples/tests)";
  }
}

std::vector<IncludeEdge> extract_project_includes(
    const std::vector<std::string>& raw, const LexedFile& lexed) {
  // The lexed line proves the directive is live code; the raw line
  // carries the path the lexer blanked (as in check_iwyu). Both quote
  // forms are recorded: R7c separately flags <> project includes, but
  // they still count as dependency edges.
  static const std::regex inc_code(R"(^\s*#\s*include\b)");
  static const std::regex inc_raw(R"(^\s*#\s*include\s*[<"]([^>"]+)[>"])");
  std::vector<IncludeEdge> out;
  for (std::size_t li = 0; li < raw.size(); ++li) {
    if (!std::regex_search(lexed.code[li], inc_code)) continue;
    std::smatch m;
    if (!std::regex_search(raw[li], m, inc_raw)) continue;
    const std::string path = m[1].str();
    for (const std::string& p : project_include_prefixes()) {
      if (starts_with(path, p)) {
        out.push_back({path, li + 1});
        break;
      }
    }
  }
  return out;
}

void check_layer_dag(const IncludeGraph& graph,
                     std::map<std::string, std::vector<Diagnostic>>* out) {
  // a) Upward includes (rank is path-derived; the target need not be a
  //    walked file for the edge to be judged).
  for (const auto& [rel, edges] : graph) {
    const int r = layer_rank(rel);
    for (const IncludeEdge& e : edges) {
      const int tr = layer_rank("src/" + e.path);
      if (tr <= r) continue;
      (*out)[rel].push_back(
          {rel, e.line, kRuleLayerDag,
           "include of '" + e.path + "' inverts the layer DAG — " +
               std::string(layer_name(r)) + " must not depend on " +
               layer_name(tr) + " (DESIGN.md §15)"});
    }
  }

  // b) Cycles. Only edges to walked files are traversed.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& u) {
        color[u] = 1;
        stack.push_back(u);
        const auto it = graph.find(u);
        if (it != graph.end()) {
          for (const IncludeEdge& e : it->second) {
            const std::string v = "src/" + e.path;
            if (!graph.count(v)) continue;
            const int c = color[v];
            if (c == 2) continue;
            if (c == 0) {
              dfs(v);
              continue;
            }
            // Back edge u -> v: the cycle is v .. u -> v on the stack.
            std::string chain = v;
            bool tail = false;
            for (const std::string& n : stack) {
              if (n == v) {
                tail = true;
                continue;
              }
              if (tail) chain += " -> " + n;
            }
            chain += " -> " + v;
            (*out)[u].push_back({u, e.line, kRuleLayerDag,
                                 "include cycle: " + chain});
          }
        }
        stack.pop_back();
        color[u] = 2;
      };
  for (const auto& [rel, edges] : graph) {
    (void)edges;
    if (color[rel] == 0) dfs(rel);
  }
}

// ---------------------------------------------------------------------
// R13 — lock discipline (src/** only).
//
// A class that declares a mutex capability (std::mutex,
// std::shared_mutex or support::Mutex by value) is a concurrent
// container: every mutable data member in it must either carry
// MPICP_GUARDED_BY / MPICP_PT_GUARDED_BY or justify itself with
// allow(lock-discipline) (the idiom for members made immutable by
// construction order — see thread_safety.hpp).
//
// The parser is deliberately conservative; unresolvable shapes exempt,
// never flag. Exempt are: the synchronisation primitives themselves
// (mutexes, atomics, condition variables), reference members (they
// alias state guarded elsewhere), static/constexpr members, const-
// leading members, and anything that parses as a method or nested type.
// ---------------------------------------------------------------------
void check_lock_discipline(const std::string& rel,
                           const std::vector<std::string>& code,
                           std::vector<Diagnostic>* diags) {
  std::string joined;
  std::vector<std::size_t> line_of;
  for (std::size_t li = 0; li < code.size(); ++li) {
    joined += code[li];
    joined += '\n';
    line_of.resize(joined.size(), li + 1);
  }
  const std::vector<Token> toks = tokenize(joined);

  static const std::set<std::string> kMutexTypes = {"mutex", "shared_mutex",
                                                    "Mutex"};
  static const std::set<std::string> kSyncTypes = {
      "mutex",       "shared_mutex",       "Mutex",
      "atomic",      "atomic_flag",        "condition_variable",
      "condition_variable_any"};
  static const std::set<std::string> kSkipLead = {
      "using",  "typedef", "friend",   "static", "constexpr",
      "enum",   "class",   "struct",   "union",  "template",
      "operator", "explicit", "virtual", "const", "public",
      "private", "protected"};

  for (std::size_t t = 0; t + 1 < toks.size(); ++t) {
    const Token& tok = toks[t];
    if (tok.kind != Token::Kind::kIdent ||
        (tok.text != "class" && tok.text != "struct")) {
      continue;
    }
    if (t > 0 && toks[t - 1].text == "enum") continue;  // enum class
    if (toks[t + 1].kind != Token::Kind::kIdent) continue;  // anonymous
    // Find the body brace past the name, capability macros and base
    // clause; `;` is a forward declaration, `>`/`,`/`)` a template or
    // parameter context — not a definition.
    std::size_t open = 0;
    for (std::size_t j = t + 1; j < toks.size(); ++j) {
      const std::string& s = toks[j].text;
      if (s == "(") { j = match_forward(toks, j, "(", ")"); continue; }
      if (s == "<") { j = match_forward(toks, j, "<", ">"); continue; }
      if (s == "{") { open = j; break; }
      if (s == ";" || s == ">" || s == "," || s == ")") break;
    }
    if (open == 0) continue;
    const std::size_t close = match_forward(toks, open, "{", "}");

    // Depth-1 statements of the class body. A `}` returning to depth 1
    // ends a method body or nested type without a separating `;`.
    std::vector<std::pair<std::size_t, std::size_t>> stmts;  // [b, e)
    int brace = 0;
    int paren = 0;
    std::size_t begin = open + 1;
    for (std::size_t j = open; j <= close && j < toks.size(); ++j) {
      const std::string& s = toks[j].text;
      if (s == "{") {
        ++brace;
      } else if (s == "}") {
        --brace;
        // Only a real body close ends a statement — a brace inside an
        // argument list (`= {}` default arguments) does not.
        if (brace == 1 && paren == 0) begin = j + 1;
      } else if (s == "(") {
        ++paren;
      } else if (s == ")") {
        --paren;
      } else if (s == ";" && brace == 1 && paren == 0) {
        stmts.emplace_back(begin, j);
        begin = j + 1;
      }
    }

    bool has_mutex = false;
    struct Candidate {
      std::string name;
      std::size_t line;
    };
    std::vector<Candidate> unannotated;
    for (auto [b, e] : stmts) {
      // Strip access-specifier labels fused into the statement.
      while (b + 1 < e && toks[b].kind == Token::Kind::kIdent &&
             (toks[b].text == "public" || toks[b].text == "private" ||
              toks[b].text == "protected") &&
             toks[b + 1].text == ":") {
        b += 2;
      }
      if (b >= e) continue;
      // Annotated members are satisfied whatever their shape (and the
      // macro's parens would otherwise read as a method signature).
      bool annotated = false;
      for (std::size_t j = b; j < e; ++j) {
        if (toks[j].text == "MPICP_GUARDED_BY" ||
            toks[j].text == "MPICP_PT_GUARDED_BY") {
          annotated = true;
          break;
        }
      }
      if (annotated) continue;
      if (toks[b].kind == Token::Kind::kIdent &&
          kSkipLead.count(toks[b].text)) {
        continue;
      }
      // The declarator prefix: everything before the first top-level
      // initialiser (`=` or `{`).
      std::size_t stop = e;
      int pd = 0;
      int ad = 0;
      for (std::size_t j = b; j < e; ++j) {
        const std::string& s = toks[j].text;
        if (s == "(") {
          ++pd;
        } else if (s == ")") {
          --pd;
        } else if (s == "<") {
          ++ad;
        } else if (s == ">") {
          if (ad > 0) --ad;
        } else if (pd == 0 && ad == 0 && (s == "=" || s == "{")) {
          stop = j;
          break;
        }
      }
      if (stop <= b) continue;
      bool has_paren = false;
      bool is_ref = false;
      bool sync = false;
      bool mutex_typed = false;
      for (std::size_t j = b; j < stop; ++j) {
        const std::string& s = toks[j].text;
        if (s == "(") has_paren = true;
        if (s == "&") is_ref = true;
        if (toks[j].kind == Token::Kind::kIdent) {
          if (kSyncTypes.count(s)) sync = true;
          if (kMutexTypes.count(s)) mutex_typed = true;
        }
      }
      if (has_paren) continue;  // method, constructor, function type
      const Token& last = toks[stop - 1];
      if (last.kind != Token::Kind::kIdent) continue;
      if (mutex_typed && !is_ref) has_mutex = true;
      if (sync || is_ref) continue;  // the primitives guard, not guarded
      unannotated.push_back({last.text, line_of[last.col]});
    }
    if (!has_mutex) continue;
    for (const Candidate& c : unannotated) {
      diags->push_back(
          {rel, c.line, kRuleLockDiscipline,
           "'" + c.name + "' shares a class with a mutex but carries no "
           "MPICP_GUARDED_BY — annotate the guard, or justify with "
           "allow(lock-discipline) (thread_safety.hpp, DESIGN.md §15)"});
    }
  }
}

// ---------------------------------------------------------------------
// R14 — atomic order audit (src/** only).
//
// Every explicitly weakened memory order (memory_order_relaxed /
// acquire / release / acq_rel / consume, either spelling) must carry an
// adjacent `// order: <why>` justification: on the same line, or in the
// comment block immediately above the statement (the walk follows
// comment-only lines and continuation lines of a multi-line call).
// Default (seq_cst) operations need nothing — the rule exists so every
// deliberate weakening states what it publishes and why that is safe.
// ---------------------------------------------------------------------
void check_atomic_order(const std::string& rel, const LexedFile& lexed,
                        const std::vector<std::vector<Token>>& toks,
                        std::vector<Diagnostic>* diags) {
  static const std::set<std::string> kWeak = {
      "memory_order_relaxed", "memory_order_acquire",
      "memory_order_release", "memory_order_acq_rel",
      "memory_order_consume"};
  static const std::set<std::string> kWeakShort = {
      "relaxed", "acquire", "release", "acq_rel", "consume"};
  constexpr std::string_view kTag = "order:";
  constexpr std::string_view kContinuation = ",(=&|+-*/?:<>";

  const auto tagged = [&](std::size_t li) {
    return lexed.comment[li].find(kTag) != std::string::npos;
  };

  for (std::size_t li = 0; li < toks.size(); ++li) {
    const std::vector<Token>& line = toks[li];
    std::string spelled;
    for (std::size_t t = 0; t < line.size(); ++t) {
      const Token& tok = line[t];
      if (tok.kind != Token::Kind::kIdent) continue;
      if (kWeak.count(tok.text)) {
        spelled = tok.text;
        break;
      }
      if (tok.text == "memory_order" && t + 3 < line.size() &&
          line[t + 1].text == ":" && line[t + 2].text == ":" &&
          kWeakShort.count(line[t + 3].text)) {
        spelled = "memory_order::" + line[t + 3].text;
        break;
      }
    }
    if (spelled.empty() || tagged(li)) continue;
    bool satisfied = false;
    std::size_t j = li;
    for (int steps = 0; j > 0 && steps < 8; ++steps) {
      --j;
      if (tagged(j)) {
        satisfied = true;
        break;
      }
      const std::string& prev = lexed.code[j];
      const std::size_t lastc = prev.find_last_not_of(" \t");
      if (lastc == std::string::npos) continue;  // blank or comment-only
      if (kContinuation.find(prev[lastc]) != std::string_view::npos) {
        continue;  // the statement continues across this line
      }
      break;  // a completed prior statement without a tag
    }
    if (satisfied) continue;
    diags->push_back(
        {rel, li + 1, kRuleAtomicOrder,
         "explicit '" + spelled + "' without an adjacent '// order:' "
         "comment — state what the weakened ordering publishes and why "
         "that is safe (DESIGN.md §15)"});
  }
}

// ---------------------------------------------------------------------
// R15 — metrics handles are static (src/** only, support/metrics.*
// exempt).
//
// A by-name `metrics::counter/gauge/histogram(...)` call takes the
// registry mutex and a map lookup, so it must run once, in the
// initializer of a `static` handle, never per call. The rule reads the
// whole statement around the call, which may span several lines, and
// accepts it only if that statement begins with `static`.
// ---------------------------------------------------------------------
void check_metrics_handles(const std::string& rel,
                           const std::vector<std::vector<Token>>& toks,
                           std::vector<Diagnostic>* diags) {
  struct Located {
    const Token* tok;
    std::size_t line;
  };
  std::vector<Located> flat;
  for (std::size_t li = 0; li < toks.size(); ++li) {
    for (const Token& t : toks[li]) flat.push_back({&t, li});
  }
  const auto text = [&flat](std::size_t i) -> const std::string& {
    return flat[i].tok->text;
  };
  for (std::size_t i = 3; i + 1 < flat.size(); ++i) {
    const std::string& name = text(i);
    if ((name != "counter" && name != "gauge" && name != "histogram") ||
        text(i + 1) != "(" || text(i - 1) != ":" || text(i - 2) != ":" ||
        text(i - 3) != "metrics") {
      continue;
    }
    std::size_t start = i - 3;  // back to the start of the statement
    while (start > 0 && text(start - 1) != ";" && text(start - 1) != "{" &&
           text(start - 1) != "}") {
      --start;
    }
    if (text(start) == "static") continue;
    diags->push_back(
        {rel, flat[i].line + 1, kRuleMetricsHandle,
         "by-name 'metrics::" + name + "' outside the initializer of a "
         "static handle — look the instrument up once "
         "(`static metrics::Counter& c = metrics::counter(...)`)"});
  }
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------
struct Options {
  fs::path root = ".";
  fs::path baseline;
  fs::path write_baseline;
  std::vector<fs::path> paths;  // explicit files/dirs; default: the tree
};

/// Per-line suppressions, shared between the per-file rules and the
/// whole-program phase (R12 findings land on include lines of a file
/// whose allow map was collected during its own lint pass).
using AllowMap = std::map<std::size_t, std::set<std::string>>;

/// The per-file pass: every rule except R12, unfiltered, plus the
/// file's allow map. Suppression filtering happens in the driver, after
/// the whole-program findings have been merged in.
AllowMap lint_file(const fs::path& abs, const std::string& rel,
                   const fs::path& root, IwyuCache* iwyu_cache,
                   std::vector<Diagnostic>* out) {
  std::ifstream in(abs);
  if (!in) {
    out->push_back({rel, 0, kRuleHeader, "cannot open file"});
    return {};
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);

  const FileRole role = classify(rel);
  const LexedFile lexed = lex(lines);

  const AllowMap allow =
      collect_suppressions(lexed.comment, lexed.code, out, rel);

  std::vector<std::vector<Token>> toks(lexed.code.size());
  for (std::size_t i = 0; i < lexed.code.size(); ++i) {
    toks[i] = tokenize(lexed.code[i]);
  }
  check_tokens(rel, role, toks, out);
  if (role.is_header) {
    check_header(rel, lexed.code, out);
    check_nodiscard(rel, lexed.code, out);
  }
  if (role.alloc_hot) {
    check_alloc_in_loop(rel, lexed.code, out);
  }
  if (role.span_scope) {
    check_span_coverage(rel, lexed.code, out);
  }
  if (role.in_src) {
    check_lock_discipline(rel, lexed.code, out);
    check_atomic_order(rel, lexed, toks, out);
    if (!role.metrics_impl) check_metrics_handles(rel, toks, out);
  }
  check_iwyu(rel, lines, lexed, root, iwyu_cache, out);
  return allow;
}

// ---------------------------------------------------------------------
// Phase 1: the include graph.
// ---------------------------------------------------------------------
IncludeGraph build_include_graph(
    const std::vector<std::pair<fs::path, std::string>>& files) {
  IncludeGraph graph;
  for (const auto& [abs, rel] : files) {
    std::ifstream in(abs);
    if (!in) {
      graph[rel];  // present but edge-free; the lint pass reports it
      continue;
    }
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    graph[rel] = extract_project_includes(lines, lex(lines));
  }
  return graph;
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp";
}

bool excluded(const std::string& rel) {
  // Fixture snippets intentionally violate rules; the self-test lints
  // them explicitly.
  return rel.find("lint_fixtures") != std::string::npos;
}

std::string rel_path(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  std::string s = (ec || rel.empty() || *rel.begin() == "..")
                      ? p.generic_string()
                      : rel.generic_string();
  return s;
}

std::vector<std::pair<fs::path, std::string>> collect_files(
    const Options& opt) {
  std::vector<std::pair<fs::path, std::string>> files;  // abs, rel
  auto add_tree = [&](const fs::path& dir) {
    if (!fs::exists(dir)) return;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file() || !lintable(e.path())) continue;
      const std::string rel = rel_path(e.path(), opt.root);
      if (excluded(rel)) continue;
      files.emplace_back(e.path(), rel);
    }
  };
  if (opt.paths.empty()) {
    for (const char* sub : {"src", "tests", "bench", "examples"}) {
      add_tree(opt.root / sub);
    }
  } else {
    for (const fs::path& p : opt.paths) {
      if (fs::is_directory(p)) {
        add_tree(p);
      } else {
        files.emplace_back(p, rel_path(p, opt.root));
      }
    }
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return files;
}

/// Both phases over the requested file set: per-file rules, the
/// whole-program layer DAG, then suppression filtering. Returns the
/// surviving diagnostics, sorted.
std::vector<Diagnostic> analyze(const Options& opt, std::size_t* n_files) {
  const auto files = collect_files(opt);
  if (n_files) *n_files = files.size();

  // Phase 1: the include graph.
  const IncludeGraph graph = build_include_graph(files);
  std::map<std::string, std::vector<Diagnostic>> layer_diags;
  check_layer_dag(graph, &layer_diags);

  // Phase 2: per-file rules, then filter everything — including the
  // R12 findings above — through each file's allow map.
  std::vector<Diagnostic> diags;
  IwyuCache iwyu_cache;
  for (const auto& [abs, rel] : files) {
    std::vector<Diagnostic> file_diags;
    const AllowMap allow =
        lint_file(abs, rel, opt.root, &iwyu_cache, &file_diags);
    const auto lit = layer_diags.find(rel);
    if (lit != layer_diags.end()) {
      file_diags.insert(file_diags.end(), lit->second.begin(),
                        lit->second.end());
    }
    for (const Diagnostic& d : file_diags) {
      const auto it = allow.find(d.line);
      if (it != allow.end() &&
          (it->second.count("all") || it->second.count(d.rule))) {
        continue;
      }
      diags.push_back(d);
    }
  }
  std::sort(diags.begin(), diags.end());
  return diags;
}

int run(const Options& opt) {
  std::size_t n_files = 0;
  std::vector<Diagnostic> diags = analyze(opt, &n_files);

  // Baseline: `path: [rule-id]` lines grandfather existing findings.
  std::set<std::pair<std::string, std::string>> baselined;
  if (!opt.baseline.empty()) {
    std::ifstream in(opt.baseline);
    if (!in) {
      std::cerr << "mpicp_lint: cannot open baseline "
                << opt.baseline.string() << '\n';
      return 2;
    }
    std::string line;
    static const std::regex entry(R"(^\s*([^#:\s]+)\s*:\s*\[([a-z\-]+)\])");
    while (std::getline(in, line)) {
      std::smatch m;
      if (std::regex_search(line, m, entry)) {
        baselined.emplace(m[1].str(), m[2].str());
      }
    }
  }

  if (!opt.write_baseline.empty()) {
    std::ofstream out(opt.write_baseline);
    out << "# mpicp_lint baseline — `path: [rule-id]` entries grandfather\n"
           "# existing findings. Keep this file empty: fix violations or\n"
           "# justify an inline allow() instead (DESIGN.md §10).\n";
    std::set<std::pair<std::string, std::string>> entries;
    for (const Diagnostic& d : diags) entries.emplace(d.file, d.rule);
    for (const auto& [file, rule] : entries) {
      out << file << ": [" << rule << "]\n";
    }
    std::cerr << "mpicp_lint: wrote " << entries.size()
              << " baseline entr" << (entries.size() == 1 ? "y" : "ies")
              << " to " << opt.write_baseline.string() << '\n';
    return 0;
  }

  std::size_t reported = 0;
  for (const Diagnostic& d : diags) {
    if (baselined.count({d.file, d.rule})) continue;
    std::cout << d.file << ':' << d.line << ": [" << d.rule << "] "
              << d.message << '\n';
    ++reported;
  }
  std::cerr << "mpicp_lint: " << n_files << " file(s), " << reported
            << " finding(s)\n";
  return reported == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// --self-test: lint the checked-in fixture trees under
// <root>/tests/lint_fixtures and compare against the expected findings
// embedded here. Standalone (no gtest), so CI can gate on the linter
// before any project library compiles; tests/test_lint.cpp asserts the
// same tables through the ctest harness.
// ---------------------------------------------------------------------
int self_test(const fs::path& root) {
  struct Expect {
    const char* file;
    std::size_t line;
    const char* rule;
  };
  struct Case {
    const char* tree;
    std::vector<Expect> expects;
  };
  const std::vector<Case> cases = {
      {"clean", {}},
      {"dirty",
       {{"src/bad_clock.cpp", 6, kRuleWallClock},
        {"src/bad_clock.cpp", 7, kRuleWallClock},
        {"src/bad_floateq.cpp", 3, kRuleFloatEq},
        {"src/bad_header.hpp", 1, kRuleHeader},
        {"src/bad_header.hpp", 3, kRuleHeader},
        {"src/bad_header.hpp", 5, kRuleHeader},
        {"src/bad_nodiscard.hpp", 6, kRuleNodiscard},
        {"src/bad_rand.cpp", 6, kRuleRand},
        {"src/bad_rand.cpp", 7, kRuleRand},
        {"src/bad_rand.cpp", 8, kRuleRand},
        {"src/bad_stdout.cpp", 6, kRuleStdout},
        {"src/bad_stdout.cpp", 7, kRuleStdout},
        {"src/bad_thread.cpp", 5, kRuleThread},
        {"src/bad_thread.cpp", 6, kRuleThread},
        {"src/bad_throw.cpp", 5, kRuleThrow}}},
      {"alloc",
       {{"src/ml/bad_alloc.cpp", 9, kRuleAllocLoop},
        {"src/ml/bad_alloc.cpp", 10, kRuleAllocLoop},
        {"src/ml/bad_alloc.cpp", 11, kRuleAllocLoop},
        {"src/ml/bad_alloc.cpp", 12, kRuleAllocLoop},
        {"src/ml/bad_alloc.cpp", 15, kRuleAllocLoop},
        {"src/ml/bad_alloc.cpp", 18, kRuleAllocLoop},
        {"src/ml/reserve_growth.cpp", 18, kRuleAllocLoop},
        {"src/ml/reserve_growth.cpp", 19, kRuleAllocLoop}}},
      {"spans", {{"src/tune/needs_span.cpp", 8, kRuleSpan}}},
      {"iwyu", {{"src/tune/consumer.cpp", 7, kRuleIwyu}}},
      {"suppressed", {}},
      {"unknown", {{"src/unknown.cpp", 3, kRuleHeader}}},
      {"layers",
       {{"src/ml/bad_up.cpp", 4, kRuleLayerDag},
        {"src/simmpi/cycle_a.hpp", 4, kRuleLayerDag}}},
      {"locks",
       {{"src/support/bad_lock.hpp", 9, kRuleLockDiscipline},
        {"src/support/bad_lock.hpp", 19, kRuleLockDiscipline}}},
      {"atomics",
       {{"src/support/bad_order.cpp", 8, kRuleAtomicOrder},
        {"src/support/bad_order.cpp", 12, kRuleAtomicOrder}}},
      {"metrics",
       {{"src/collbench/bad_handles.cpp", 8, kRuleMetricsHandle},
        {"src/collbench/bad_handles.cpp", 11, kRuleMetricsHandle},
        {"src/collbench/bad_handles.cpp", 14, kRuleMetricsHandle},
        {"src/collbench/bad_handles.cpp", 17, kRuleMetricsHandle}}},
  };

  bool ok = true;
  for (const Case& c : cases) {
    Options opt;
    opt.root = root / "tests" / "lint_fixtures" / c.tree;
    if (!fs::exists(opt.root)) {
      std::cout << "self-test " << c.tree << ": FAIL (missing fixture tree "
                << opt.root.string() << ")\n";
      ok = false;
      continue;
    }
    const std::vector<Diagnostic> diags = analyze(opt, nullptr);
    std::set<std::string> got;
    for (const Diagnostic& d : diags) {
      got.insert(d.file + ":" + std::to_string(d.line) + ":" + d.rule);
    }
    std::set<std::string> want;
    for (const Expect& e : c.expects) {
      want.insert(std::string(e.file) + ":" + std::to_string(e.line) + ":" +
                  e.rule);
    }
    if (got == want) {
      std::cout << "self-test " << c.tree << ": PASS (" << want.size()
                << " expected finding" << (want.size() == 1 ? "" : "s")
                << ")\n";
      continue;
    }
    ok = false;
    std::cout << "self-test " << c.tree << ": FAIL\n";
    for (const std::string& g : got) {
      if (!want.count(g)) std::cout << "  unexpected: " << g << '\n';
    }
    for (const std::string& w : want) {
      if (!got.count(w)) std::cout << "  missing:    " << w << '\n';
    }
  }
  std::cout << "mpicp_lint --self-test: " << (ok ? "PASS" : "FAIL")
            << '\n';
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool want_self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "mpicp_lint: " << flag << " expects a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      opt.root = value("--root");
    } else if (arg == "--baseline") {
      opt.baseline = value("--baseline");
    } else if (arg == "--write-baseline") {
      opt.write_baseline = value("--write-baseline");
    } else if (arg == "--self-test") {
      want_self_test = true;
    } else if (arg == "--list-rules") {
      for (const std::string& r : all_rules()) std::cout << r << '\n';
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout <<
          "usage: mpicp_lint [--root DIR] [--baseline FILE]\n"
          "                  [--write-baseline FILE]\n"
          "                  [--list-rules] [--self-test] [paths...]\n"
          "Lints src/ tests/ bench/ examples/ under --root (default: .)\n"
          "or the explicit files/directories given. Exits 1 on findings.\n"
          "--self-test lints the fixture trees under\n"
          "<root>/tests/lint_fixtures against the expected findings\n"
          "embedded in the binary.\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mpicp_lint: unknown option '" << arg << "'\n";
      return 2;
    } else {
      opt.paths.emplace_back(arg);
    }
  }
  if (want_self_test) return self_test(opt.root);
  return run(opt);
}
