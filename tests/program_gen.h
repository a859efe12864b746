// A seeded generator of random well-formed tabular-algebra programs over
// a small Sales + Tags database, shared by the tests that pin or execute
// generated programs.

#ifndef TABULAR_TESTS_PROGRAM_GEN_H_
#define TABULAR_TESTS_PROGRAM_GEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tabular::testgen {

// The flat Sales table of Figure 1 (two data rows) plus a two-row Tags
// table, so binary operators see both same-scheme and disjoint operands.
constexpr std::string_view kGrid =
    "!Sales | !Part  | !Region | !Sold\n"
    "#      | nuts   | east    | 50\n"
    "#      | bolts  | west    | 60\n"
    "\n"
    "!Tags | !Tag\n"
    "#     | hot\n"
    "#     | cold\n";

/// Deterministic LCG so failures reproduce; no global RNG state.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  bool OneIn(size_t n) { return Below(n) == 0; }

 private:
  uint64_t state_;
};

/// Random well-formed program text over the names and attributes of
/// `kGrid` (plus scratch names and attributes no table carries).
class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint64_t seed) : rng_(seed) {}

  std::string Program() {
    std::string out;
    const size_t n = 1 + rng_.Below(6);
    for (size_t i = 0; i < n; ++i) out += Statement(0);
    return out;
  }

 private:
  template <size_t N>
  const char* Pick(const char* const (&pool)[N]) {
    return pool[rng_.Below(N)];
  }
  std::string Table() {
    static constexpr const char* kTables[] = {"Sales", "Tags", "A", "B",
                                              "W"};
    return Pick(kTables);
  }
  std::string Attr() {
    static constexpr const char* kAttrs[] = {"Part", "Region", "Sold", "Tag",
                                             "Qty"};
    return Pick(kAttrs);
  }
  std::string AttrSet() {
    std::string a = Attr();
    std::string b = Attr();
    return a == b || rng_.OneIn(2) ? "{" + a + "}" : "{" + a + ", " + b + "}";
  }
  std::string Value() {
    static constexpr const char* kValues[] = {"'nuts'", "'east'", "'hot'",
                                              "'50'"};
    return Pick(kValues);
  }

  /// One assignment `target <- op (...)` reading `src`.
  std::string Assign(const std::string& target, const std::string& src) {
    const std::string head = target + " <- ";
    const std::string arg = " (" + src + ");\n";
    switch (rng_.Below(18)) {
      case 0: return head + "transpose" + arg;
      case 1: return head + "rename " + Attr() + " / " + Attr() + arg;
      case 2: return head + "project " + AttrSet() + arg;
      case 3: return head + "select " + Attr() + " = " + Attr() + arg;
      case 4: return head + "selectconst " + Attr() + " = " + Value() + arg;
      case 5: return head + "group by {" + Attr() + "} on " + AttrSet() + arg;
      case 6: return head + "merge on " + AttrSet() + " by {" + Attr() + "}" +
                     arg;
      case 7: return head + "split on {" + Attr() + "}" + arg;
      case 8: return head + "collapse by {" + Attr() + "}" + arg;
      case 9: return head + "cleanup by " + AttrSet() + " on {_}" + arg;
      case 10: return head + "purge on " + AttrSet() + " by {_}" + arg;
      case 11: return head + "tuplenew Id" + arg;
      case 12: return head + "setnew Id" + arg;
      case 13: return head + "switch " + Value() + arg;
      case 14: return head + "union (" + src + ", " + Table() + ");\n";
      case 15: return head + "difference (" + src + ", " + Table() + ");\n";
      case 16: return head + "intersection (" + src + ", " + Table() + ");\n";
      default: return head + "product (" + src + ", " + Table() + ");\n";
    }
  }

  std::string Statement(int depth) {
    const std::string t = Table();
    switch (rng_.Below(depth < 2 ? 13 : 11)) {
      case 0:
      case 1:
        return Assign(Table(), Table());
      case 2:  // fusable projections, or a hoistable filter after a group
        return rng_.OneIn(2)
                   ? t + " <- project " + AttrSet() + " (Sales);\n" + t +
                         " <- project " + AttrSet() + " (" + t + ");\n"
                   : t + " <- group by {Region} on {Sold} (Sales);\n" +
                         Table() + " <- selectconst Tag = 'hot' (Tags);\n";
      case 3:
        return "drop " + t + ";\n";
      case 4:
        return "*1 <- transpose (*1);\n";
      case 5:  // rewrite-engine fodder: a transpose involution
        return t + " <- transpose (" + t + ");\n" + t + " <- transpose (" +
               t + ");\n";
      case 6:  // identity select, or a superset project (after a switch,
               // over unknown columns: the validator must veto it)
        if (rng_.OneIn(2)) return t + " <- select Part = Part (" + t + ");\n";
        return (rng_.OneIn(3) ? t + " <- switch 'nuts' (" + t + ");\n" : "") +
               t + " <- project {Part, Region, Sold, Tag} (" + t + ");\n";
      case 7: {  // product followed by a filter the pushdown rules target;
                 // pushing it onto Tags loses when the source is drained
        const std::string src = Table();
        return (rng_.OneIn(3) ? src + " <- difference (" + src + ", " + src +
                                    ");\n"
                              : "") +
               t + " <- product (" + src + ", Tags);\n" + t +
               (rng_.OneIn(2) ? " <- select " + Attr() + " = " + Attr()
                              : " <- project " + AttrSet()) +
               " (" + t + ");\n";
      }
      case 8:  // write then drop, and a self-difference drain
        return rng_.OneIn(2) ? Assign(t, Table()) + "drop " + t + ";\n"
                             : t + " <- difference (" + t + ", " + t +
                                   ");\n";
      case 9:  // a statement reading the table the previous one wrote
        return Assign(t, Table()) + Assign(Table(), t);
      default:
        return While(depth);
    }
  }

  std::string While(int depth) {
    const std::string guard = Table();
    std::string body;
    if (rng_.OneIn(2)) {
      // Read-after-write inside the body.
      const std::string scratch = Table();
      body += Assign(scratch, Table()) + Assign(Table(), scratch);
    }
    const size_t n = 1 + rng_.Below(2);
    for (size_t i = 0; i < n; ++i) body += Statement(depth + 1);
    switch (rng_.Below(3)) {
      case 0:  // drains the guard: at most a bounded trip count
        body += guard + " <- difference (" + guard + ", " + guard + ");\n";
        break;
      case 1:
        body += "drop " + guard + ";\n";
        break;
      default:
        break;  // may spin: the guard is left to the other statements
    }
    return "while " + guard + " do {\n" + body + "}\n";
  }

  Lcg rng_;
};

}  // namespace tabular::testgen

#endif  // TABULAR_TESTS_PROGRAM_GEN_H_
