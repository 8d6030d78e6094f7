// mpq_lint: the repo's own static checker. Scans C++ sources for the
// project rules that generic compilers don't enforce:
//
//   wall-clock       host clock reads (system_clock/steady_clock/
//                    std::time/gettimeofday/clock_gettime) outside
//                    src/common — simulations must be functions of
//                    simulated time only (common/clock.h is the one
//                    sanctioned read).
//   raw-rng          std::rand/srand/random_device/mt19937 outside
//                    common/rng.h — all randomness flows from the
//                    seeded xoshiro Rng, or runs aren't reproducible.
//   unordered-iter   range-for over a std::unordered_{map,set} declared
//                    in the same file, in protocol/simulation code
//                    (src/quic, src/cc, src/sim, src/tcpsim) —
//                    iteration order is implementation-defined and
//                    breaks determinism.
//   iostream-io      <iostream> / std::cout / std::cerr in src/ —
//                    library code reports through common/log.
//   naked-new        a `new` expression whose result is not captured by
//                    a smart pointer in the same statement.
//   pragma-once      a header under src/ without #pragma once.
//   include-hygiene  quoted includes using ".." parent paths (project
//                    includes are rooted at src/).
//   host-clock       raw MonotonicNanos() timing in src/ outside
//                    common/clock.h — host time is measured from outside
//                    the library (perfbench --trace 1); a reading the
//                    tracer API carries is suppressed where it is taken.
//   reinterpret-cast reinterpret_cast outside src/crypto and the wire
//                    codec (src/quic/wire*) — type punning stays in the
//                    two layers whose job is raw bytes.
//   layering         a direct #include that points upward in the layer
//                    DAG (docs/ARCHITECTURE.md): foundation dirs
//                    (common/crypto/sim/cc) must not include protocol
//                    code, obs/ must not include the connection or
//                    endpoint, and within src/quic each layer module
//                    (wire, path, streams, scheduler, control_queue,
//                    config, recovery, handshake, assembler, dispatch)
//                    may only include modules below it. Only direct
//                    includes are checked; transitive closure is the
//                    compiler's problem.
//
// Suppression: a line containing NOLINT silences every rule on that
// line; NOLINT(mpq-<rule>) silences just that rule. NOLINTNEXTLINE and
// NOLINTNEXTLINE(mpq-<rule>) do the same for the line directly below
// them (for lines with no room for a trailing comment).
//
//   mpq_lint [--root DIR] [PATHS...]   lint PATHS (default: src bench)
//   mpq_lint --selftest DIR            run the seeded-violation corpus:
//                                      every file must produce exactly
//                                      the rules its "// expect:" lines
//                                      declare, and every rule must be
//                                      exercised at least once.
//
// Exit status: 0 clean, 1 findings (or corpus mismatch), 2 usage.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

// -- source preprocessing ---------------------------------------------------

/// Strip comments and string/char literals, preserving line structure, so
/// rules match only code. Returns one entry per input line; `raw` keeps
/// the original text (for NOLINT markers and "// expect:" directives).
struct Line {
  std::string code;  // comments and literal contents blanked out
  std::string raw;
};

std::vector<Line> ReadLines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<Line> lines;
  std::string text;
  bool in_block_comment = false;
  while (std::getline(in, text)) {
    std::string code;
    code.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
      if (in_block_comment) {
        if (text[i] == '*' && i + 1 < text.size() && text[i + 1] == '/') {
          in_block_comment = false;
          ++i;
        }
        continue;
      }
      const char c = text[i];
      if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') break;
      if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
        in_block_comment = true;
        ++i;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        code.push_back(quote);
        ++i;
        while (i < text.size() && text[i] != quote) {
          if (text[i] == '\\') ++i;
          ++i;
        }
        code.push_back(quote);
        continue;
      }
      code.push_back(c);
    }
    lines.push_back({std::move(code), std::move(text)});
  }
  return lines;
}

/// Does `raw` carry the given suppression marker for `rule`? A bare
/// marker silences every rule; a parenthesised one only the rules it
/// names (as mpq-<rule>).
bool MarkerSuppresses(const std::string& raw, const char* marker,
                      const std::string& rule) {
  const std::size_t len = std::strlen(marker);
  std::size_t pos = raw.find(marker);
  while (pos != std::string::npos) {
    // "NOLINT" also matches inside "NOLINTNEXTLINE" — skip occurrences
    // that are a prefix of a longer marker; they belong to that marker.
    const std::size_t after = pos + len;
    if (after < raw.size() &&
        (std::isalnum(static_cast<unsigned char>(raw[after])) != 0 ||
         raw[after] == '_')) {
      pos = raw.find(marker, after);
      continue;
    }
    if (after < raw.size() && raw[after] == '(') {
      const std::size_t close = raw.find(')', after);
      const std::string list =
          raw.substr(after, close == std::string::npos ? std::string::npos
                                                       : close - after);
      return list.find("mpq-" + rule) != std::string::npos;
    }
    return true;  // bare marker: silence everything
  }
  return false;
}

/// A finding on line `idx` is suppressed by NOLINT / NOLINT(mpq-<rule>)
/// on the same line, or NOLINTNEXTLINE / NOLINTNEXTLINE(mpq-<rule>) on
/// the line directly above it.
bool Suppressed(const std::vector<Line>& lines, std::size_t idx,
                const std::string& rule) {
  if (MarkerSuppresses(lines[idx].raw, "NOLINT", rule)) return true;
  return idx > 0 &&
         MarkerSuppresses(lines[idx - 1].raw, "NOLINTNEXTLINE", rule);
}

// -- rule implementations ---------------------------------------------------

/// `rel` is the path of the file relative to the repository root, with
/// forward slashes (e.g. "src/quic/connection.cc").
bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// mpq-layering: the enforced include DAG. Each entry applies to files
/// whose repo-relative path starts with `file_prefix` and forbids direct
/// quoted includes starting with any of the comma-separated prefixes in
/// `forbidden`. Prefixes are matched without the ".h" suffix so the rule
/// also covers split headers (e.g. "quic/wire" matches "quic/wire.h").
/// The tables mirror docs/ARCHITECTURE.md; connection/endpoint/audit sit
/// at the top and may include everything.
struct LayerRule {
  const char* file_prefix;
  const char* forbidden;
};

const LayerRule kLayeringRules[] = {
    // Foundation: no upward includes at all.
    {"src/common/", "quic/,cc/,crypto/,sim/,obs/,harness/"},
    {"src/crypto/", "quic/,cc/,sim/,obs/,harness/"},
    {"src/sim/", "quic/,cc/,crypto/,obs/,harness/"},
    {"src/cc/", "quic/,crypto/,sim/,obs/,harness/"},
    // Observability consumes the tracer interface and wire types only.
    {"src/obs/",
     "quic/connection,quic/endpoint,quic/assembler,quic/dispatch,"
     "quic/handshake,quic/recovery,quic/path,quic/streams,quic/config,"
     "quic/scheduler,quic/control_queue,quic/audit,harness/"},
    // src/quic, bottom-up. Each module may include only what sits below
    // it; the delegate interfaces exist precisely so these lists hold.
    {"src/quic/wire",
     "quic/connection,quic/endpoint,quic/audit,quic/config,quic/path,"
     "quic/streams,quic/scheduler,quic/control_queue,quic/recovery,"
     "quic/handshake,quic/assembler,quic/dispatch,obs/"},
    {"src/quic/trace",
     "quic/connection,quic/endpoint,quic/audit,quic/config,quic/path,"
     "quic/streams,quic/scheduler,quic/control_queue,quic/recovery,"
     "quic/handshake,quic/assembler,quic/dispatch,obs/"},
    {"src/quic/path",
     "quic/connection,quic/endpoint,quic/audit,quic/config,"
     "quic/streams,quic/scheduler,quic/control_queue,quic/recovery,"
     "quic/handshake,quic/assembler,quic/dispatch,obs/"},
    {"src/quic/streams",
     "quic/connection,quic/endpoint,quic/audit,quic/config,quic/path,"
     "quic/scheduler,quic/control_queue,quic/recovery,"
     "quic/handshake,quic/assembler,quic/dispatch,obs/"},
    {"src/quic/scheduler",
     "quic/connection,quic/endpoint,quic/audit,quic/config,"
     "quic/streams,quic/control_queue,quic/recovery,"
     "quic/handshake,quic/assembler,quic/dispatch,obs/"},
    {"src/quic/control_queue",
     "quic/connection,quic/endpoint,quic/audit,quic/config,quic/path,"
     "quic/streams,quic/scheduler,quic/recovery,"
     "quic/handshake,quic/assembler,quic/dispatch,obs/"},
    {"src/quic/config",
     "quic/connection,quic/endpoint,quic/audit,quic/path,"
     "quic/control_queue,quic/recovery,"
     "quic/handshake,quic/assembler,quic/dispatch,obs/"},
    {"src/quic/recovery",
     "quic/connection,quic/endpoint,quic/audit,quic/config,"
     "quic/streams,quic/scheduler,quic/control_queue,"
     "quic/handshake,quic/assembler,quic/dispatch,obs/"},
    {"src/quic/handshake",
     "quic/connection,quic/endpoint,quic/audit,quic/path,"
     "quic/streams,quic/scheduler,quic/control_queue,quic/recovery,"
     "quic/assembler,quic/dispatch,obs/"},
    {"src/quic/assembler",
     "quic/connection,quic/endpoint,quic/audit,"
     "quic/handshake,quic/dispatch,obs/"},
    {"src/quic/dispatch",
     "quic/connection,quic/endpoint,quic/audit,quic/config,"
     "quic/scheduler,quic/control_queue,quic/recovery,"
     "quic/handshake,quic/assembler,obs/"},
};

void CheckFile(const std::string& rel, const std::vector<Line>& lines,
               std::vector<Finding>& findings) {
  const bool in_src = StartsWith(rel, "src/");
  const bool in_common = StartsWith(rel, "src/common/");
  const bool is_rng_header = rel == "src/common/rng.h";
  const bool protocol_scope =
      StartsWith(rel, "src/quic/") || StartsWith(rel, "src/cc/") ||
      StartsWith(rel, "src/sim/") || StartsWith(rel, "src/tcpsim/");
  const bool is_header = rel.size() > 2 && rel.compare(rel.size() - 2, 2, ".h") == 0;

  const auto report = [&](std::size_t idx, const char* rule,
                          std::string message) {
    if (!Suppressed(lines, idx, rule)) {
      findings.push_back({rel, idx + 1, rule, std::move(message)});
    }
  };

  static const std::regex kHostClock(R"(\bMonotonicNanos\s*\()");
  static const std::regex kWallClock(
      R"(\b(?:system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime)\b|std::time\s*\()");
  static const std::regex kRawRng(
      R"(\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|\bmt19937)");
  static const std::regex kIostream(
      R"(#include\s*<iostream>|\bstd::cout\b|\bstd::cerr\b|\bstd::clog\b)");
  static const std::regex kNew(R"(\bnew\b)");
  static const std::regex kSmartWrap(R"(unique_ptr|shared_ptr|make_unique|make_shared)");
  static const std::regex kUnorderedDecl(
      R"(unordered_(?:map|set|multimap|multiset)\s*<)");
  static const std::regex kDeclName(R"(>\s*(\w+)\s*(?:;|\{|=))");
  static const std::regex kParentInclude(R"(#include\s*"[^"]*\.\./)");
  static const std::regex kQuotedInclude(R"(#include\s*"([^"]+)\")");
  static const std::regex kReinterpret(R"(\breinterpret_cast\b)");
  static const std::regex kShardAffinity(
      R"(\b(?:FindConnection|ForEachConnection|Connections)\s*\()");
  static const std::regex kSimdIntrinsics(
      R"(\b_mm\d*_\w+\s*\(|\b__m(?:128|256|512)i?\b|\b__builtin_cpu_(?:supports|init)\s*\(|#include\s*<(?:imm|emm|xmm|smm|tmm|wmm|nmm|avx[\w]*)intrin\.h>)");

  // Pass 1: names of unordered containers declared in this file (for the
  // iteration rule). Declarations themselves are fine — lookups and
  // erases are order-independent.
  std::set<std::string> unordered_names;
  if (protocol_scope) {
    for (const auto& line : lines) {
      std::smatch m;
      if (std::regex_search(line.code, m, kUnorderedDecl)) {
        // The variable name follows the closing '>' of the template
        // argument list, possibly on this line.
        std::smatch name;
        const std::string tail = line.code.substr(m.position(0));
        if (std::regex_search(tail, name, kDeclName)) {
          unordered_names.insert(name[1]);
        }
      }
    }
  }

  bool saw_pragma_once = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (code.find("#pragma once") != std::string::npos) {
      saw_pragma_once = true;
    }

    // MonotonicNanos() is the sanctioned host-clock read (clock.h defines
    // it), but library code that times itself scatters ad-hoc readings
    // no tool collects; host time is measured from outside.
    if (in_src && rel != "src/common/clock.h" &&
        std::regex_search(code, kHostClock)) {
      report(i, "host-clock",
             "raw MonotonicNanos() timing in library code (measure host "
             "time from outside, with perfbench --trace 1)");
    }
    if (in_src && !in_common && std::regex_search(code, kWallClock)) {
      report(i, "wall-clock",
             "host clock read outside src/common (use simulated time, or "
             "common/clock.h for self-measurement)");
    }
    if (!is_rng_header && std::regex_search(code, kRawRng)) {
      report(i, "raw-rng",
             "unseeded/global randomness (use the seeded mpq::Rng)");
    }
    if (in_src && std::regex_search(code, kIostream)) {
      report(i, "iostream-io",
             "iostream writes in library code (use common/log)");
    }
    if (std::regex_search(code, kNew) &&
        !std::regex_search(code, kSmartWrap)) {
      report(i, "naked-new",
             "new expression not owned by a smart pointer in the same "
             "statement");
    }
    // Type punning is confined to the two places that legitimately
    // reinterpret bytes: the crypto primitives and the wire codec.
    if (in_src && !StartsWith(rel, "src/crypto/") &&
        !StartsWith(rel, "src/quic/wire") &&
        std::regex_search(code, kReinterpret)) {
      report(i, "reinterpret-cast",
             "reinterpret_cast outside src/crypto and quic/wire (keep "
             "type punning in the byte-handling layers)");
    }
    // Shard affinity: the server's connection table is owned by one
    // shard's event loop. Only the server engine itself, the endpoint
    // facades, and the whole-world harness layers (model-checker
    // explorer, workload reducer) may touch it; everything else must
    // route through the owning shard or per-connection handles.
    {
      const bool shard_engine_scope =
          StartsWith(rel, "src/quic/server") ||
          StartsWith(rel, "src/quic/endpoint") ||
          StartsWith(rel, "src/tcpsim/endpoint") ||
          StartsWith(rel, "src/harness/explore") ||
          StartsWith(rel, "src/harness/workload");
      if (!shard_engine_scope && std::regex_search(code, kShardAffinity)) {
        report(i, "shard-affinity",
               "connection-table access (FindConnection/ForEachConnection/"
               "Connections) outside the server engine breaks shard "
               "affinity (route through the owning shard)");
      }
    }
    // CPU intrinsics and feature probes stay behind the crypto dispatch
    // layer (src/crypto/cpu.h): one audited home for per-arch code and
    // its scalar fallback, instead of #ifdef __AVX2__ creep through the
    // protocol layers. Matches vector intrinsics/types, the GCC/Clang
    // cpu-feature builtins, and the x86 intrinsic headers.
    if (in_src && !StartsWith(rel, "src/crypto/") &&
        std::regex_search(code, kSimdIntrinsics)) {
      report(i, "simd-intrinsics",
             "CPU intrinsics / feature probes outside src/crypto (route "
             "through the crypto/cpu.h dispatch layer)");
    }
    // Include paths live inside string literals, which the code view
    // blanks out — match the raw line for this rule.
    if (std::regex_search(lines[i].raw, kParentInclude)) {
      report(i, "include-hygiene",
             "parent-relative #include (project includes are rooted at "
             "src/)");
    }
    // Layering is checked on direct includes only (again on the raw
    // line, since the include path is a string literal).
    std::smatch inc;
    if (std::regex_search(lines[i].raw, inc, kQuotedInclude)) {
      const std::string target = inc[1];
      for (const auto& rule : kLayeringRules) {
        if (!StartsWith(rel, rule.file_prefix)) continue;
        const std::string forbidden = rule.forbidden;
        std::size_t start = 0;
        while (start < forbidden.size()) {
          std::size_t comma = forbidden.find(',', start);
          if (comma == std::string::npos) comma = forbidden.size();
          const std::string prefix = forbidden.substr(start, comma - start);
          if (StartsWith(target, prefix.c_str())) {
            report(i, "layering",
                   "\"" + target + "\" sits above " + rule.file_prefix +
                       "* in the layer DAG (see docs/ARCHITECTURE.md)");
          }
          start = comma + 1;
        }
      }
    }
    if (protocol_scope && code.find("for") != std::string::npos &&
        code.find(':') != std::string::npos) {
      for (const auto& name : unordered_names) {
        static const char* kForPrefix = R"(for\s*\([^;:]*:\s*[\w.\->]*\b)";
        const std::regex iter(std::string(kForPrefix) + name + R"(\b)");
        if (std::regex_search(code, iter)) {
          report(i, "unordered-iter",
                 "iteration over std::unordered container '" + name +
                     "' in protocol/sim code (order is nondeterministic)");
        }
      }
    }
  }

  if (in_src && is_header && !saw_pragma_once && !lines.empty()) {
    findings.push_back({rel, 1, "pragma-once", "header missing #pragma once"});
  }
}

// -- driver -----------------------------------------------------------------

bool LintableFile(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
}

std::vector<fs::path> CollectFiles(const fs::path& root,
                                   const std::vector<std::string>& dirs) {
  std::vector<fs::path> files;
  for (const auto& dir : dirs) {
    const fs::path base = root / dir;
    if (fs::is_regular_file(base)) {
      files.push_back(base);
      continue;
    }
    if (!fs::is_directory(base)) {
      std::fprintf(stderr, "mpq_lint: no such path: %s\n",
                   base.string().c_str());
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && LintableFile(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string RelativeTo(const fs::path& root, const fs::path& file) {
  return fs::relative(file, root).generic_string();
}

const std::vector<std::string> kAllRules = {
    "wall-clock", "raw-rng",     "unordered-iter",  "iostream-io",
    "naked-new",  "pragma-once", "include-hygiene", "layering",
    "host-clock", "reinterpret-cast", "shard-affinity", "simd-intrinsics"};

int RunLint(const fs::path& root, const std::vector<std::string>& dirs) {
  std::vector<Finding> findings;
  for (const auto& file : CollectFiles(root, dirs)) {
    CheckFile(RelativeTo(root, file), ReadLines(file), findings);
  }
  for (const auto& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "mpq_lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}

/// Corpus mode: each file under `dir` declares its expected rules in
/// "// expect: <rule>" lines; files named common_* are linted as if they
/// lived in src/common, headers keep their extension, everything else is
/// treated as protocol code under src/quic.
int RunSelfTest(const fs::path& dir) {
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "mpq_lint: corpus directory not found: %s\n",
                 dir.string().c_str());
    return 2;
  }
  int failures = 0;
  std::set<std::string> exercised;
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && LintableFile(entry.path())) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::fprintf(stderr, "mpq_lint: empty corpus\n");
    return 1;
  }
  for (const auto& file : files) {
    const auto lines = ReadLines(file);
    std::multiset<std::string> expected;
    for (const auto& line : lines) {
      const auto pos = line.raw.find("// expect: ");
      if (pos != std::string::npos) {
        std::string rule = line.raw.substr(pos + std::strlen("// expect: "));
        while (!rule.empty() && (rule.back() == ' ' || rule.back() == '\r')) {
          rule.pop_back();
        }
        expected.insert(rule);
      }
    }
    const std::string name = file.filename().string();
    const std::string virtual_path =
        (name.rfind("common_", 0) == 0 ? "src/common/" : "src/quic/") + name;
    std::vector<Finding> findings;
    CheckFile(virtual_path, lines, findings);
    std::multiset<std::string> got;
    for (const auto& f : findings) {
      got.insert(f.rule);
      exercised.insert(f.rule);
    }
    if (got != expected) {
      ++failures;
      std::fprintf(stderr, "selftest FAILED: %s\n  expected:", name.c_str());
      for (const auto& r : expected) std::fprintf(stderr, " %s", r.c_str());
      std::fprintf(stderr, "\n  got:     ");
      for (const auto& f : findings) {
        std::fprintf(stderr, " %s(line %zu)", f.rule.c_str(), f.line);
      }
      std::fprintf(stderr, "\n");
    }
  }
  for (const auto& rule : kAllRules) {
    if (exercised.find(rule) == exercised.end()) {
      ++failures;
      std::fprintf(stderr, "selftest FAILED: rule '%s' never fired\n",
                   rule.c_str());
    }
  }
  if (failures == 0) {
    std::printf("mpq_lint selftest OK (%zu corpus files, %zu rules)\n",
                files.size(), kAllRules.size());
    return 0;
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0 && i + 1 < argc) {
      return RunSelfTest(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
      root = argv[++i];
      continue;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: mpq_lint [--root DIR] [PATHS...]\n"
                   "       mpq_lint --selftest CORPUS_DIR\n");
      return 2;
    }
    dirs.push_back(argv[i]);
  }
  if (dirs.empty()) dirs = {"src", "bench"};
  return RunLint(root, dirs);
}
