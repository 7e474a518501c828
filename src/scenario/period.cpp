#include "scenario/period.hpp"

#include "scenario/scenario_spec.hpp"

namespace ipfs::scenario {

// The period data lives in the checked-in scenarios/*.json files, which
// the build compiles in as the builtin scenarios (scenario_spec.hpp), so
// the presets and the files share one source of truth; these accessors
// are compatibility wrappers.

// .value() turns a renamed/removed builtin into a loud
// std::bad_optional_access instead of undefined behaviour.
PeriodSpec PeriodSpec::P0() { return ScenarioSpec::builtin("p0").value().period; }
PeriodSpec PeriodSpec::P1() { return ScenarioSpec::builtin("p1").value().period; }
PeriodSpec PeriodSpec::P2() { return ScenarioSpec::builtin("p2").value().period; }
PeriodSpec PeriodSpec::P3() { return ScenarioSpec::builtin("p3").value().period; }
PeriodSpec PeriodSpec::P4() { return ScenarioSpec::builtin("p4").value().period; }
PeriodSpec PeriodSpec::Long14d() {
  return ScenarioSpec::builtin("long14d").value().period;
}

std::vector<PeriodSpec> PeriodSpec::table1() {
  return {P0(), P1(), P2(), P3(), P4()};
}

}  // namespace ipfs::scenario
