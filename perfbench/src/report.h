#pragma once

// Raw results scorecard hands to perfbench/run.py on stdout, one line
// each (run.py owns the statistics and the final JSON):
//
//   sample <name> <unit> <v1> [<v2> ...]   reported as the median of the values
//   dist <name> <unit> <v1> [<v2> ...]     reported as <name>_p50, <name>_p99
//                                          and <name>_samples
//   rep <steal> <name> <unit> [<v1> ...]   values from one repetition, during
//                                          which the CPUs lost a share <steal>
//                                          of their time to other guests;
//                                          reported as the median over the
//                                          least-stolen repetitions
//   ops <attempted> <failed>               timed operations and failures

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  void sample(const std::string& name, const std::string& unit, double v) {
    entry(name, unit, false).values.push_back(v);
  }
  void samples(const std::string& name, const std::string& unit,
               const std::vector<double>& vs) {
    auto& e = entry(name, unit, false).values;
    e.insert(e.end(), vs.begin(), vs.end());
  }
  void dist(const std::string& name, const std::string& unit,
            const std::vector<double>& vs) {
    auto& e = entry(name, unit, true).values;
    e.insert(e.end(), vs.begin(), vs.end());
  }
  void rep(double steal, const std::string& name, const std::string& unit,
           const std::vector<double>& vs) {
    reps_.push_back({steal, name, unit, vs});
  }
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void print(std::FILE* out) const {
    for (const auto& [name, e] : entries_) {
      std::fprintf(out, "%s %s %s", e.dist ? "dist" : "sample", name.c_str(),
                   e.unit.c_str());
      for (double v : e.values) std::fprintf(out, " %.17g", v);
      std::fprintf(out, "\n");
    }
    for (const Rep& r : reps_) {
      std::fprintf(out, "rep %.17g %s %s", r.steal, r.name.c_str(), r.unit.c_str());
      for (double v : r.values) std::fprintf(out, " %.17g", v);
      std::fprintf(out, "\n");
    }
    std::fprintf(out, "ops %d %d\n", attempted_, failed_);
  }

 private:
  struct Entry {
    std::string unit;
    bool dist = false;
    std::vector<double> values;
  };
  struct Rep {
    double steal;
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  Entry& entry(const std::string& name, const std::string& unit, bool dist) {
    Entry& e = entries_[name];
    e.unit = unit;
    e.dist = dist;
    return e;
  }

  std::map<std::string, Entry> entries_;
  std::vector<Rep> reps_;
  int attempted_ = 0;
  int failed_ = 0;
};

}  // namespace perfbench
