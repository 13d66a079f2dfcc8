package service

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"xcluster/internal/core"
	"xcluster/internal/obs"
)

// budgetScrape renders the service's /metrics text and keeps the
// xcluster_budget_* lines, HELP and TYPE included.
func budgetScrape(t *testing.T, svc *Service, reg *obs.Registry) []string {
	t.Helper()
	svc.SyncMetrics()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "xcluster_budget_") {
			out = append(out, line)
		}
	}
	return out
}

// budgetLines renders the xcluster_budget_* scrape block for one
// serving synopsis: its realized histogram, pst, struct and termhist
// bytes, the provenance gauge set to 1 (none when prov is ""), the
// plan total and the planned struct bytes.
func budgetLines(actual [4]int, prov string, total, plannedStruct int) []string {
	one := func(p string) int {
		if p == prov {
			return 1
		}
		return 0
	}
	return strings.Split(fmt.Sprintf(`# HELP xcluster_budget_actual_bytes Realized bytes of the serving synopsis by component.
# TYPE xcluster_budget_actual_bytes gauge
xcluster_budget_actual_bytes{component="histogram"} %d
xcluster_budget_actual_bytes{component="pst"} %d
xcluster_budget_actual_bytes{component="struct"} %d
xcluster_budget_actual_bytes{component="termhist"} %d
# HELP xcluster_budget_plan_provenance 1 for the serving plan's provenance (static, auto, workload), 0 otherwise.
# TYPE xcluster_budget_plan_provenance gauge
xcluster_budget_plan_provenance{provenance="auto"} %d
xcluster_budget_plan_provenance{provenance="static"} %d
xcluster_budget_plan_provenance{provenance="workload"} %d
# HELP xcluster_budget_plan_total_bytes Total byte budget of the serving synopsis's plan.
# TYPE xcluster_budget_plan_total_bytes gauge
xcluster_budget_plan_total_bytes %d
# HELP xcluster_budget_planned_bytes Planned byte budget of the serving synopsis by component (0 when the plan leaves the component unsplit).
# TYPE xcluster_budget_planned_bytes gauge
xcluster_budget_planned_bytes{component="histogram"} 0
xcluster_budget_planned_bytes{component="pst"} 0
xcluster_budget_planned_bytes{component="struct"} %d
xcluster_budget_planned_bytes{component="termhist"} 0`,
		actual[0], actual[1], actual[2], actual[3],
		one("auto"), one("static"), one("workload"), total, plannedStruct), "\n")
}

// TestBudgetGaugesScrape pins the exact xcluster_budget_* scrape lines
// for a synopsis of unknown provenance (the reference: every plan
// gauge 0), a static build, and the same service after an adaptive
// rebuild.
func TestBudgetGaugesScrape(t *testing.T) {
	tree := testTree(t)
	ref, err := core.BuildReference(tree, core.ReferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want []string) {
		t.Helper()
		if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
			t.Errorf("%s: budget scrape\n got:\n%s\nwant:\n%s", name, g, w)
		}
	}

	svc := New(ref)
	reg := svc.reg
	check("reference", budgetScrape(t, svc, reg), budgetLines([4]int{1672, 4776, 244, 246}, "", 0, 0))
	svc.Close()

	svc = New(newTestSynopsis(t), WithDocument(tree))
	reg = svc.reg
	defer svc.Close()
	check("static", budgetScrape(t, svc, reg), budgetLines([4]int{56, 486, 244, 4}, "static", 1024, 512))

	profileTraffic(t, svc)
	if _, err := svc.Rebuild(context.Background(), RebuildOptions{Adaptive: true}); err != nil {
		t.Fatal(err)
	}
	check("adaptive", budgetScrape(t, svc, reg), budgetLines([4]int{72, 708, 184, 38}, "workload", 1024, 204))
}
