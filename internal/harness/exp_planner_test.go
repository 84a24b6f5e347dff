package harness

import (
	"testing"

	"numacs/internal/core"
	"numacs/internal/join"
)

// TestStarJoinPlannerBitIdentical pins the planner's lowering contract on
// the starjoin experiment's fixed-seed scenario: ExecuteStar — which now runs
// Build -> Optimize (with live stats) -> Lower — must emit an operator
// pipeline field-for-field identical to ExecuteStarUnplanned's hand wiring,
// so twin engines driving the two paths with the same seed match on every
// counter and on the full latency distribution, bit for bit.
func TestStarJoinPlannerBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-seed simulation runs")
	}
	s := QuickScale()
	hand := runStarJoinCell(s, []int{0}, core.Bound, join.ExecuteStarUnplanned)
	planned := runStarJoinCell(s, []int{0}, core.Bound, join.ExecuteStar)

	if hand.Counters.QueriesDone == 0 {
		t.Fatal("no statements completed")
	}
	sameFingerprint(t, hand, planned)
}

// checkPlannerCriteria asserts the planner experiment's acceptance criteria
// at one simulator scale: plan-driven submission must form strictly more
// cohorted statements than timing-driven submission — and some of them must
// come through plan groups — while at least matching its throughput.
func checkPlannerCriteria(t *testing.T, s Scale) {
	t.Helper()
	timing := RunPlanner(s, false)
	planned := RunPlanner(s, true)
	if timing.QueriesDone == 0 || planned.QueriesDone == 0 {
		t.Fatalf("no statements completed (timing %d, planned %d)",
			timing.QueriesDone, planned.QueriesDone)
	}
	if planned.CohortedStatements <= timing.CohortedStatements {
		t.Errorf("plan-driven cohorted statements %d <= timing-driven %d — plan-time detection added nothing",
			planned.CohortedStatements, timing.CohortedStatements)
	}
	if planned.Cohorts.PlanGrouped == 0 {
		t.Errorf("no statements entered through plan-driven groups: %+v", planned.Cohorts)
	}
	if timing.Cohorts.PlanGrouped != 0 {
		t.Errorf("timing-driven mode unexpectedly used plan groups: %+v", timing.Cohorts)
	}
	if planned.QPM < timing.QPM {
		t.Errorf("plan-driven throughput %.0f q/min < timing-driven %.0f", planned.QPM, timing.QPM)
	}
}

// TestPlannerCohortsQuick asserts the criteria at the quick scale's 25 us
// simulator step.
func TestPlannerCohortsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("planner simulation runs")
	}
	checkPlannerCriteria(t, QuickScale())
}

// TestPlannerCohortsFull asserts the criteria at the full scale's 5 us
// simulator step (step-size robustness: quantization must not be what forms
// the extra cohorts).
func TestPlannerCohortsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("planner simulation runs at full scale")
	}
	checkPlannerCriteria(t, FullScale())
}
