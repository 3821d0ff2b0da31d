package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestDeclaredMetrics keeps BENCHMARK.json and the metric tables in step:
// every declared metric is reported with the declared unit, and nothing
// undeclared is.
func TestDeclaredMetrics(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []metricDef) {
		if len(declared) != len(code) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code reports %d", kind, len(declared), len(code))
		}
		units := make(map[string]string, len(code))
		for _, d := range code {
			units[d.name] = d.unit
		}
		for _, d := range declared {
			if u, ok := units[d.Name]; !ok || u != d.Unit {
				t.Errorf("%s: declared %s [%s], the code reports [%s] (present: %v)", kind, d.Name, d.Unit, u, ok)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)

	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {99, 5}, {1, 1}, {80, 4}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: %v, want 2.5", got)
	}
	if median(nil) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestMidMean(t *testing.T) {
	// Eight values: the lowest two and the highest two are dropped.
	if got := midMean([]float64{100, 1, 4, 3, 5, 6, 2, 0}); got != 3.5 {
		t.Errorf("midMean %v, want 3.5", got)
	}
	if got := midMean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("midMean of three %v, want their mean 3", got)
	}
}

func TestGroupedMedian(t *testing.T) {
	// Groups [1 2 9] [3 4 5 6 7]: the short last group joins the one before.
	xs := []float64{1, 2, 9, 3, 4, 5, 6, 7}
	if got := groupedMedian(xs, 3, tailMean); got != 8 {
		t.Errorf("grouped tail %v, want 8 (the median of the group maxima 9 and 7)", got)
	}
	if got := groupedMedian(xs, 100, median); got != 4.5 {
		t.Errorf("one group: %v, want the median 4.5", got)
	}
	if groupedMedian(nil, 3, median) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestLayersSelfTimeAndCoverage(t *testing.T) {
	tr := newTracer()
	ms := int64(time.Millisecond)
	// root [0,10) with children [1,4) and [3,6) overlapping, and [8,12)
	// reaching past the root's end: covered = [1,6) + [8,10) = 7 ms.
	tr.add(span{ID: 1, Name: "root", Start: 0, End: 10 * ms})
	tr.add(span{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms})
	tr.add(span{ID: 3, Parent: 1, Name: "a", Start: 3 * ms, End: 6 * ms})
	tr.add(span{ID: 4, Parent: 1, Name: "b", Start: 8 * ms, End: 12 * ms})
	lt := tr.layers("root")
	if got := lt.self["root"]; got != 3*time.Millisecond {
		t.Errorf("root self time %v, want 3ms", got)
	}
	if got := lt.total["a"]; got != 6*time.Millisecond || lt.count["a"] != 2 {
		t.Errorf("a total %v count %d, want 6ms and 2", got, lt.count["a"])
	}
	if lt.coverage != 0.7 {
		t.Errorf("coverage %v, want 0.7", lt.coverage)
	}
}
