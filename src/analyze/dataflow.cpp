#include "analyze/dataflow.h"

#include <algorithm>
#include <array>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <tuple>

#include "check/cpp_lexer.h"
#include "check/cpp_parser.h"

namespace ntr::analyze {

namespace {

using check::ParsedCall;
using check::ParsedDecl;
using check::ParsedFunction;
using check::ParsedLambda;
using check::ParsedSource;
using check::Token;
using check::TokenKind;

template <std::size_t N>
bool in_set(const std::array<std::string_view, N>& set, std::string_view s) {
  return std::find(set.begin(), set.end(), s) != set.end();
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open) {
  const std::string_view o = toks[open].text;
  const std::string_view c = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == o) ++depth;
    if (toks[i].text == c && --depth == 0) return i;
  }
  return toks.size();
}

constexpr std::array<std::string_view, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

constexpr std::array<std::string_view, 4> kOrderedTypes = {"map", "set",
                                                           "multimap",
                                                           "multiset"};

constexpr std::array<std::string_view, 6> kStreamTypes = {
    "ostream", "ofstream", "ostringstream", "stringstream", "fstream",
    "osyncstream"};

constexpr std::array<std::string_view, 11> kAssignOps = {
    "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="};

constexpr std::array<std::string_view, 9> kContainerMutators = {
    "push_back", "emplace_back", "insert", "emplace",     "append",
    "push",      "push_front",   "add",    "emplace_hint"};

constexpr std::array<std::string_view, 10> kControlKeywords = {
    "for", "while", "if", "switch", "return", "do",
    "else", "case", "break", "continue"};

/// Deferred-execution sinks: the callable runs after the full expression,
/// so by-ref captures of locals are a lifetime hazard. The repo's
/// synchronous barriers (parallel_chunks / parallel_for / parallel_argmin /
/// ThreadPool::run) are deliberately absent.
constexpr std::array<std::string_view, 7> kDeferredSinks = {
    "submit", "enqueue", "post", "defer", "dispatch", "spawn", "async"};

/// Task-container mutators: pushing a by-ref-capturing lambda into a
/// container parks it beyond the current statement.
constexpr std::array<std::string_view, 4> kTaskStores = {
    "push_back", "emplace_back", "push", "emplace"};

bool decl_type_any(const ParsedDecl& d,
                   std::span<const std::string_view> idents) {
  for (const std::string_view t : idents)
    if (check::decl_type_has(d, t)) return true;
  return false;
}

/// The justification-comment grammar for nondeterministic-iteration:
/// `ntr-determinism(<why>)` on the loop line or the line directly above.
/// <why> is free text by design (commutative, sorted-below, keys-unique,
/// ...); requiring *a* reason is the point, not policing its vocabulary.
bool determinism_justified(const Project& project, std::size_t file,
                           std::size_t loop_line) {
  const auto has = [&](std::size_t line) {
    return project.raw_line(file, line).find("ntr-determinism(") !=
           std::string_view::npos;
  };
  return has(loop_line) || (loop_line > 1 && has(loop_line - 1));
}

struct FileCtx {
  const SourceFile* sf = nullptr;
  const ParsedSource* parsed = nullptr;  ///< SourceFile::parsed, shared
};

// ------------------------------------------------------- unchecked-status

void check_unchecked_status(
    const Project& project, std::size_t fi, const FileCtx& ctx,
    const std::set<std::string, std::less<>>& status_fns,
    std::vector<check::LintDiagnostic>& out) {
  const SourceFile& sf = *ctx.sf;
  const std::vector<Token>& toks = sf.lexed.tokens;
  const auto report = [&](std::size_t line, std::string message) {
    if (check::lint_suppressed(project.raw_line(fi, line), sf.content,
                               "unchecked-status"))
      return;
    out.push_back(check::LintDiagnostic{sf.path, line, "unchecked-status",
                                        std::move(message)});
  };

  // A Status-returning call whose result roots a discarded statement.
  for (const ParsedCall& call : ctx.parsed->calls) {
    if (!call.discarded) continue;
    if (!status_fns.contains(call.callee)) continue;
    report(call.line,
           "the Status/StatusOr result of '" + call.callee +
               "' is discarded; test it, consume the value, or make the "
               "discard explicit with (void) and a justification");
  }

  // A local holding a Status/StatusOr that is never read again. `auto`
  // locals resolve through the initializer's outermost call.
  for (const ParsedDecl& decl : ctx.parsed->decls) {
    if (decl.is_param) continue;
    if (decl.scope < 0) continue;
    const auto& scope = ctx.parsed->scopes[static_cast<std::size_t>(decl.scope)];
    if (scope.function == -1) continue;  // members: used across functions
    bool status_typed = check::decl_type_has(decl, "Status") ||
                        check::decl_type_has(decl, "StatusOr");
    if (!status_typed && check::decl_type_has(decl, "auto") &&
        decl.name_index + 1 < toks.size() &&
        is_punct(toks[decl.name_index + 1], "=")) {
      // `auto r = try_x(...)`: the outermost call of the initializer's
      // postfix chain decides -- the one whose rparen is last before the
      // ';'. Keying off the first call by token order would type
      // `try_read().value()` as Status and `registry.lookup(k).commit()`
      // as whatever `lookup` returns.
      std::size_t stmt_end = decl.name_index + 2;
      while (stmt_end < toks.size() && !is_punct(toks[stmt_end], ";"))
        ++stmt_end;
      const ParsedCall* outermost = nullptr;
      for (const ParsedCall& call : ctx.parsed->calls) {
        if (call.name_index <= decl.name_index || call.name_index >= stmt_end)
          continue;
        if (outermost == nullptr || call.rparen > outermost->rparen)
          outermost = &call;
      }
      if (outermost != nullptr)
        status_typed = status_fns.contains(outermost->callee);
    }
    if (!status_typed) continue;

    bool used = false;
    for (std::size_t k = decl.name_index + 1; k < scope.end && k < toks.size();
         ++k) {
      if (toks[k].kind != TokenKind::kIdentifier || toks[k].text != decl.name)
        continue;
      if (k >= 1 && (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->") ||
                     is_punct(toks[k - 1], "::")))
        continue;  // a member of some other object sharing the name
      used = true;
      break;
    }
    if (!used)
      report(decl.line, "local '" + decl.name +
                            "' holds a Status/StatusOr that is never read; "
                            "test .ok(), consume the value, or discard it "
                            "explicitly with (void)");
  }
}

// --------------------------------------------- nondeterministic-iteration

void check_nondeterministic_iteration(const Project& project, std::size_t fi,
                                      const FileCtx& ctx,
                                      std::vector<check::LintDiagnostic>& out) {
  const SourceFile& sf = *ctx.sf;
  const std::vector<Token>& toks = sf.lexed.tokens;
  const ParsedSource& parsed = *ctx.parsed;
  const auto report = [&](std::size_t line, std::string message) {
    if (check::lint_suppressed(project.raw_line(fi, line), sf.content,
                               "nondeterministic-iteration"))
      return;
    out.push_back(check::LintDiagnostic{sf.path, line,
                                        "nondeterministic-iteration",
                                        std::move(message)});
  };

  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdentifier || toks[i].text != "for" ||
        !is_punct(toks[i + 1], "("))
      continue;
    const std::size_t rp = match_forward(toks, i + 1);
    if (rp >= toks.size()) continue;
    // Range-for: the ':' at top bracket depth inside the parens.
    std::size_t colon = toks.size();
    int depth = 0;
    for (std::size_t k = i + 2; k < rp; ++k) {
      if (toks[k].kind != TokenKind::kPunct) continue;
      const std::string& p = toks[k].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      if (p == ")" || p == "]" || p == "}") --depth;
      if (depth == 0 && p == ":") {
        colon = k;
        break;
      }
    }
    if (colon >= toks.size()) continue;

    // The iterated container: any identifier of the range expression that
    // resolves to a declaration with an unordered associative type.
    std::string container;
    for (std::size_t k = colon + 1; k < rp && container.empty(); ++k) {
      if (toks[k].kind != TokenKind::kIdentifier) continue;
      const ParsedDecl* d = parsed.lookup(toks[k].text, k);
      if (d != nullptr &&
          decl_type_any(*d, std::span<const std::string_view>(kUnorderedTypes)))
        container = toks[k].text;
    }
    if (container.empty()) continue;

    // Loop body: braced block, or the single statement up to ';'.
    std::size_t body_begin = rp + 1;
    std::size_t body_end;
    if (body_begin < toks.size() && is_punct(toks[body_begin], "{")) {
      body_end = match_forward(toks, body_begin);
      if (body_end >= toks.size()) continue;
    } else {
      body_end = body_begin;
      while (body_end < toks.size() && !is_punct(toks[body_end], ";"))
        ++body_end;
    }

    // The function tail after the loop, for the sort-later exemption.
    std::size_t fn_end = toks.size();
    {
      const int s = parsed.scope_at(rp);
      const int f = parsed.scopes[static_cast<std::size_t>(s)].function;
      if (f >= 0) fn_end = parsed.functions[static_cast<std::size_t>(f)].body_end;
    }
    const auto sorted_later = [&](std::string_view target) {
      for (std::size_t k = body_end; k + 1 < fn_end && k + 1 < toks.size(); ++k) {
        if (toks[k].kind != TokenKind::kIdentifier ||
            (toks[k].text != "sort" && toks[k].text != "stable_sort"))
          continue;
        if (!is_punct(toks[k + 1], "(")) continue;
        const std::size_t close = match_forward(toks, k + 1);
        for (std::size_t a = k + 2; a < close && a < toks.size(); ++a)
          if (toks[a].kind == TokenKind::kIdentifier && toks[a].text == target)
            return true;
      }
      return false;
    };

    // Hash-order writes: a postfix chain rooted at an identifier declared
    // outside the loop statement, ending in an assignment, a mutating
    // member call, or a stream insertion.
    for (std::size_t k = body_begin; k < body_end; ++k) {
      const Token& t = toks[k];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (k >= 1 && (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->") ||
                     is_punct(toks[k - 1], "::")))
        continue;
      if (in_set(kControlKeywords, std::string_view(t.text))) continue;
      if (t.text == container) continue;

      const ParsedDecl* target = parsed.lookup(t.text, k);
      // Declared inside the loop statement (loop variable or body local):
      // per-element state, not an ordered output.
      if (target != nullptr && target->name_index > i &&
          target->name_index < body_end)
        continue;

      // Walk the postfix chain.
      std::size_t pos = k;
      std::string mutator;
      while (pos + 1 < body_end) {
        const Token& nx = toks[pos + 1];
        if (is_punct(nx, ".") || is_punct(nx, "->")) {
          if (pos + 2 >= body_end || toks[pos + 2].kind != TokenKind::kIdentifier)
            break;
          const std::string& member = toks[pos + 2].text;
          if (pos + 3 < body_end && is_punct(toks[pos + 3], "(") &&
              in_set(kContainerMutators, std::string_view(member)))
            mutator = member;
          pos += 2;
          continue;
        }
        if (is_punct(nx, "[") || is_punct(nx, "(")) {
          const std::size_t close = match_forward(toks, pos + 1);
          if (close >= body_end) break;
          pos = close;
          continue;
        }
        break;
      }
      bool is_write = !mutator.empty();
      bool stream_write = false;
      if (pos + 1 < body_end && toks[pos + 1].kind == TokenKind::kPunct) {
        if (in_set(kAssignOps, std::string_view(toks[pos + 1].text)))
          is_write = true;
        if (toks[pos + 1].text == "++" || toks[pos + 1].text == "--")
          is_write = true;
        if (toks[pos + 1].text == "<<" && target != nullptr &&
            decl_type_any(*target,
                          std::span<const std::string_view>(kStreamTypes))) {
          is_write = true;
          stream_write = true;
        }
      }
      if (k >= 1 && (is_punct(toks[k - 1], "++") || is_punct(toks[k - 1], "--")))
        is_write = true;
      if (!is_write) continue;

      // Ordered-copy exemption: the write target is itself an ordered
      // associative container, so hash order cannot leak out.
      if (!stream_write && target != nullptr &&
          decl_type_any(*target, std::span<const std::string_view>(kOrderedTypes)))
        continue;
      if (sorted_later(t.text)) continue;
      if (determinism_justified(project, fi, toks[i].line)) continue;

      report(t.line,
             "loop over unordered container '" + container + "' writes '" +
                 t.text +
                 "' in hash order; sort before emitting, collect into an "
                 "ordered container, or justify with // "
                 "ntr-determinism(<why>) on the loop line");
      break;  // one finding per loop is enough to force the fix
    }
  }
}

// ------------------------------------------------- escaping-ref-capture

void check_escaping_ref_capture(const Project& project, std::size_t fi,
                                const FileCtx& ctx,
                                std::vector<check::LintDiagnostic>& out) {
  const SourceFile& sf = *ctx.sf;
  const std::vector<Token>& toks = sf.lexed.tokens;
  const ParsedSource& parsed = *ctx.parsed;
  const auto report = [&](std::size_t line, std::string message) {
    if (check::lint_suppressed(project.raw_line(fi, line), sf.content,
                               "escaping-ref-capture"))
      return;
    out.push_back(check::LintDiagnostic{sf.path, line, "escaping-ref-capture",
                                        std::move(message)});
  };

  for (const ParsedLambda& lam : parsed.lambdas) {
    if (!lam.default_by_ref && lam.ref_captures.empty()) continue;
    const std::string captures =
        lam.default_by_ref
            ? std::string("[&]")
            : "[&" + lam.ref_captures.front() +
                  (lam.ref_captures.size() > 1 ? ", ...]" : "]");

    // Returned: the captured frame dies as the lambda leaves it.
    if (lam.intro >= 1 && toks[lam.intro - 1].kind == TokenKind::kIdentifier &&
        toks[lam.intro - 1].text == "return") {
      report(lam.line, "lambda with by-ref captures " + captures +
                           " is returned from the enclosing function; its "
                           "captured references dangle at the first call");
      continue;
    }

    // Passed to a deferred sink / stored in a task container: the
    // innermost call whose argument list contains the lambda.
    const ParsedCall* enclosing = nullptr;
    for (const ParsedCall& call : parsed.calls) {
      if (call.lparen < lam.intro && lam.intro < call.rparen &&
          (enclosing == nullptr || call.lparen > enclosing->lparen))
        enclosing = &call;
    }
    if (enclosing != nullptr) {
      if (in_set(kDeferredSinks, std::string_view(enclosing->callee))) {
        report(lam.line,
               "lambda with by-ref captures " + captures +
                   " is passed to deferred-execution sink '" +
                   enclosing->callee +
                   "'; it may run after the captured scope is gone -- "
                   "capture by value or hand over owned state");
        continue;
      }
      if (enclosing->member_call &&
          in_set(kTaskStores, std::string_view(enclosing->callee))) {
        report(lam.line,
               "lambda with by-ref captures " + captures +
                   " is stored in a container via '" + enclosing->callee +
                   "'; it outlives the statement while its captures do not "
                   "-- capture by value or keep the queue scope-local with "
                   "a suppression justifying the lifetime");
        continue;
      }
    }

    // `std::thread t([&]{...})` / `std::thread([&]{...})`: the thread
    // outlives the full expression unless joined in the same scope, which
    // the coarse parse cannot prove -- flag it.
    bool threaded = false;
    {
      for (const ParsedDecl& d : parsed.decls) {
        if (!(check::decl_type_has(d, "thread") ||
              check::decl_type_has(d, "jthread")))
          continue;
        if (d.name_index >= lam.intro || d.name_index + 1 >= toks.size())
          continue;
        std::size_t stmt_end = d.name_index + 1;
        while (stmt_end < toks.size() && !is_punct(toks[stmt_end], ";"))
          ++stmt_end;
        if (lam.intro < stmt_end) {
          threaded = true;
          break;
        }
      }
    }
    if (threaded) {
      report(lam.line, "lambda with by-ref captures " + captures +
                           " is launched on a std::thread; the captured "
                           "frame must outlive the join, which this parse "
                           "cannot see -- capture by value or justify with "
                           "a suppression");
      continue;
    }

    // Stored beyond the enclosing scope: assignment into a member
    // (trailing-underscore convention or explicit member access) or into
    // a std::function declared at class/namespace scope.
    if (lam.intro >= 2 && is_punct(toks[lam.intro - 1], "=") &&
        toks[lam.intro - 2].kind == TokenKind::kIdentifier) {
      const std::string& name = toks[lam.intro - 2].text;
      const bool member_target =
          (!name.empty() && name.back() == '_') ||
          (lam.intro >= 3 && (is_punct(toks[lam.intro - 3], ".") ||
                              is_punct(toks[lam.intro - 3], "->")));
      const ParsedDecl* d = parsed.lookup(name, lam.intro - 2);
      const bool outlives_fn =
          d != nullptr && check::decl_type_has(*d, "function") &&
          parsed.scopes[static_cast<std::size_t>(d->scope)].function == -1;
      if (member_target || outlives_fn) {
        report(lam.line,
               "lambda with by-ref captures " + captures + " is stored in '" +
                   name +
                   "', which outlives the enclosing scope; capture by value "
                   "or tie the storage lifetime to the captures");
        continue;
      }
    }
  }
}

}  // namespace

std::vector<check::LintDiagnostic> check_dataflow(const Project& project) {
  std::vector<check::LintDiagnostic> out;

  // Parse every file once; the whole-project view is what lets the
  // unchecked-status pass know return types across headers.
  std::vector<FileCtx> ctxs(project.files.size());
  std::set<std::string, std::less<>> status_fns;
  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    ctxs[fi].sf = &project.files[fi];
    ctxs[fi].parsed = &project.files[fi].parsed;  // parsed once at load
    for (const ParsedFunction& fn : ctxs[fi].parsed->functions) {
      if (fn.name == "Status" || fn.name == "StatusOr") continue;
      if (check::return_type_has(fn, "Status") ||
          check::return_type_has(fn, "StatusOr"))
        status_fns.insert(fn.name);
    }
  }

  for (std::size_t fi = 0; fi < project.files.size(); ++fi) {
    // Library code only: tools and tests discard, iterate, and capture
    // under their own rules (a test asserting on a Status it just
    // printed, a tool looping a debug dump, ...).
    if (!ctxs[fi].sf->path.starts_with("src/")) continue;
    check_unchecked_status(project, fi, ctxs[fi], status_fns, out);
    check_nondeterministic_iteration(project, fi, ctxs[fi], out);
    check_escaping_ref_capture(project, fi, ctxs[fi], out);
  }

  std::sort(out.begin(), out.end(),
            [](const check::LintDiagnostic& a, const check::LintDiagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return out;
}

}  // namespace ntr::analyze
