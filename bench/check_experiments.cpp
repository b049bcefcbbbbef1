// Checks EXPERIMENTS.md against the figure goldens: every bold measured
// value in a table row must appear in the golden of that row's bench
// (bench/golden/<bench>.txt), at the precision the document quotes it.
//
//   check_experiments <EXPERIMENTS.md> <bench/golden dir>
//
// A row's benches are the `bench_*` names it mentions that have a
// golden; a row that names none is mapped from its figure label. A
// value no golden prints is listed in kUnprinted with its reason, and
// an entry no longer needed fails the check, so the list cannot go
// stale. After the document passes, the checker plants a wrong number
// in it and requires that to fail. Exit 0 on success, 1 on any
// mismatch (each one printed), 2 on a usage or I/O error.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

/// A figure label (a row's first cell starts with it) and the bench
/// whose golden holds the row's values. More specific labels first.
struct LabelBench {
  const char* label;
  std::vector<std::string> benches;
};
const LabelBench kLabelBenches[] = {
    {"Fig. 7", {"bench_fig7_comparison"}},
    {"Fig. 8", {"bench_fig8_delay_sweep"}},
    {"Fig. 9", {"bench_fig9_batch_sweep"}},
    {"Fig. 10c", {"bench_fig10c_threshold"}},
    {"Fig. 10", {"bench_fig10_duty"}},
    {"§VI-B", {"bench_ux_interrupts", "bench_ablation"}},
    {"§IV-B", {"bench_knapsack_quality"}},
};

/// A bold value no golden prints: the row (any substring of its line)
/// and the number as the document writes it.
struct Unprinted {
  const char* row;
  const char* value;
  const char* reason;
};
const Unprinted kUnprinted[] = {
    {"Fig. 10c", "0.59",
     "extrapolated by hand from the sweep's last step; no bench prints it"},
    {"capacity slack", "100",
     "slack share from the sched.knapsack counters of the trace workloads; "
     "no figure table prints it"},
    {"capacity slack", "56",
     "bench_knapsack_quality's slack share is a work counter, not a table"},
    {"capacity slack", "0", "sched.solver.slot_sorts counter of perfbench"},
    {"capacity slack", "89990",
     "sched.solver.slot_sorts counter of bench_knapsack_quality"},
};

/// A decimal number as written: its digits without the point, and how
/// many of them follow the point.
struct Decimal {
  std::int64_t scaled = 0;
  int decimals = 0;
};

/// Parses a token of number_pattern(); false when it has too many
/// digits to hold.
bool parse_decimal(const std::string& token, Decimal& d) {
  if (token.size() > 18) return false;
  d = Decimal{};
  for (const char c : token) {
    if (c != '.') d.scaled = d.scaled * 10 + (c - '0');
  }
  const std::size_t point = token.find('.');
  d.decimals =
      point == std::string::npos ? 0 : static_cast<int>(token.size() - point - 1);
  return true;
}

/// True when `printed`, rounded to the decimals of `quoted`, is
/// `quoted` (a tie rounds either way): the document may quote a value
/// at a coarser precision than the bench prints it.
bool rounds_to(const Decimal& printed, const Decimal& quoted) {
  if (printed.decimals < quoted.decimals) return false;
  std::int64_t unit = 1;
  for (int i = quoted.decimals; i < printed.decimals; ++i) unit *= 10;
  const std::int64_t diff = printed.scaled - quoted.scaled * unit;
  return 2 * (diff < 0 ? -diff : diff) <= unit;
}

const std::regex& number_pattern() {
  static const std::regex re(R"(\d+(\.\d+)?)");
  return re;
}

std::vector<std::string> numbers_in(const std::string& text) {
  std::vector<std::string> out;
  for (auto it = std::sregex_iterator(text.begin(), text.end(),
                                      number_pattern());
       it != std::sregex_iterator(); ++it) {
    out.push_back(it->str());
  }
  return out;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream s;
  s << in.rdbuf();
  out = s.str();
  return true;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(' ');
  const auto e = s.find_last_not_of(' ');
  return b == std::string::npos ? "" : s.substr(b, e - b + 1);
}

class Checker {
 public:
  explicit Checker(std::string golden_dir)
      : golden_dir_(std::move(golden_dir)) {}

  /// Checks `doc`; returns the mismatches, one line each.
  std::vector<std::string> check(const std::string& doc) {
    std::vector<std::string> errors;
    std::vector<bool> used(std::size(kUnprinted), false);
    std::istringstream lines(doc);
    std::string line;
    int lineno = 0;
    static const std::regex bold(R"(\*\*(.+?)\*\*)");
    static const std::regex bench_name(R"(`(bench_\w+)`)");
    while (std::getline(lines, line)) {
      ++lineno;
      std::vector<std::string> values;
      for (auto it = std::sregex_iterator(line.begin(), line.end(), bold);
           it != std::sregex_iterator(); ++it) {
        for (const std::string& v : numbers_in((*it)[1].str())) {
          values.push_back(v);
        }
      }
      if (values.empty()) continue;
      const std::string where = "EXPERIMENTS.md:" + std::to_string(lineno);
      if (line[0] != '|') {
        errors.push_back(where + ": bold value outside a table row");
        continue;
      }
      const std::string label = trim(line.substr(1, line.find('|', 1) - 1));
      std::vector<const std::vector<Decimal>*> goldens;
      for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                          bench_name);
           it != std::sregex_iterator(); ++it) {
        if (const auto* g = golden((*it)[1].str())) goldens.push_back(g);
      }
      if (goldens.empty()) {
        for (const LabelBench& lb : kLabelBenches) {
          if (label.rfind(lb.label, 0) != 0) continue;
          for (const std::string& b : lb.benches) {
            if (const auto* g = golden(b)) goldens.push_back(g);
          }
          break;
        }
      }
      for (const std::string& v : values) {
        bool excused = false;
        for (std::size_t i = 0; i < std::size(kUnprinted); ++i) {
          if (v == kUnprinted[i].value &&
              line.find(kUnprinted[i].row) != std::string::npos) {
            used[i] = true;
            excused = true;
          }
        }
        if (excused || printed_in(v, goldens)) continue;
        errors.push_back(where + " (" + label + "): " + v +
                         " is in no golden of the row's benches");
      }
    }
    for (std::size_t i = 0; i < std::size(kUnprinted); ++i) {
      if (!used[i]) {
        errors.push_back(std::string("unprinted-value entry no longer used: ") +
                         kUnprinted[i].row + " / " + kUnprinted[i].value);
      }
    }
    return errors;
  }

 private:
  /// The numbers of a bench's golden, or null when it has none.
  const std::vector<Decimal>* golden(const std::string& bench) {
    auto it = goldens_.find(bench);
    if (it == goldens_.end()) {
      std::optional<std::vector<Decimal>> numbers;
      std::string text;
      if (read_file(golden_dir_ + "/" + bench + ".txt", text)) {
        numbers.emplace();
        for (const std::string& n : numbers_in(text)) {
          Decimal d;
          if (parse_decimal(n, d)) numbers->push_back(d);
        }
      }
      it = goldens_.emplace(bench, std::move(numbers)).first;
    }
    return it->second ? &*it->second : nullptr;
  }

  static bool printed_in(const std::string& value,
                         const std::vector<const std::vector<Decimal>*>& goldens) {
    Decimal quoted;
    if (!parse_decimal(value, quoted)) return false;
    for (const std::vector<Decimal>* numbers : goldens) {
      for (const Decimal& printed : *numbers) {
        if (rounds_to(printed, quoted)) return true;
      }
    }
    return false;
  }

  std::string golden_dir_;
  std::map<std::string, std::optional<std::vector<Decimal>>> goldens_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: check_experiments <EXPERIMENTS.md> <golden dir>\n");
    return 2;
  }
  std::string doc;
  if (!read_file(argv[1], doc)) {
    std::fprintf(stderr, "check_experiments: cannot read %s\n", argv[1]);
    return 2;
  }
  Checker checker(argv[2]);
  const std::vector<std::string> errors = checker.check(doc);
  for (const std::string& e : errors) std::printf("%s\n", e.c_str());
  if (!errors.empty()) return 1;

  // The check must be able to fail: plant a number no golden prints in
  // place of the first bold value of a figure row.
  const std::size_t at = doc.find("**", doc.find("| Fig. "));
  std::smatch m;
  const std::string rest = at == std::string::npos ? "" : doc.substr(at + 2);
  if (!std::regex_search(rest, m, number_pattern())) {
    std::printf("no figure row with a bold value to plant into\n");
    return 1;
  }
  std::string planted = doc;
  planted.replace(at + 2 + static_cast<std::size_t>(m.position(0)),
                  static_cast<std::size_t>(m.length(0)), "31415.9");
  if (checker.check(planted).empty()) {
    std::printf("a planted wrong number passed the check\n");
    return 1;
  }
  std::printf("EXPERIMENTS.md: every bold value matches its row's golden, "
              "except these no golden prints:\n");
  for (const Unprinted& u : kUnprinted) {
    std::printf("  %s / %s: %s\n", u.row, u.value, u.reason);
  }
  return 0;
}
