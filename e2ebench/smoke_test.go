package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks
// the program against.
type benchmarkFile struct {
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

// reduced shrinks a workload so that the smoke test runs in seconds while
// keeping its path (compressed or full) and its generator.
func reduced(sp spec) spec {
	sp.logs = 2
	switch sp.name {
	case "tpch-2200":
		sp.n, sp.k = 110, 5
	case "scalem-10k":
		sp.n, sp.k = 600, 8
	default:
		sp.n = 46
		if sp.k > 0 {
			sp.k = 8
		}
		if sp.compareK > 0 {
			sp.compareK = 8
		}
	}
	return sp
}

func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bm.Workloads), len(specs))
	}
	e2e := map[string]string{}
	for _, m := range bm.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range bm.PerLayer {
		layer[m.Name] = m.Unit
	}

	for i, w := range bm.Workloads {
		sp, err := lookupSpec(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if specs[i].name != w.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, specs[i].name)
		}
		sp = reduced(sp)
		t.Run(sp.name, func(t *testing.T) {
			digests := map[string]string{}
			for _, c := range []struct {
				label       string
				trace       bool
				parallelism int
				want        map[string]string
			}{
				{"untraced", false, 0, e2e},
				{"traced", true, 0, layer},
				{"serial", false, 1, e2e},
			} {
				var out bytes.Buffer
				rep, err := run(context.Background(), runConfig{spec: sp, seed: 1, trace: c.trace, parallelism: c.parallelism}, &out)
				if err != nil {
					t.Fatalf("%s: %v", c.label, err)
				}
				res := rep.result
				if !res.Correct || res.Failed != 0 || res.Attempted < sp.logs {
					t.Errorf("%s: correct=%v attempted=%d failed=%d", c.label, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(c.want) {
					t.Errorf("%s: %d metrics, BENCHMARK.json names %d", c.label, len(res.Metrics), len(c.want))
				}
				for name, unit := range c.want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("%s: metric %s is %+v (present %v), want unit %s", c.label, name, m, ok, unit)
						continue
					}
					if !strings.Contains(out.String(), metricLine(name, m.Value, unit)) {
						t.Errorf("%s: metric %s not printed with its unit", c.label, name)
					}
				}
				digests[c.label] = rep.digest
			}
			if digests["traced"] != digests["untraced"] || digests["serial"] != digests["untraced"] {
				t.Errorf("digests differ: %v", digests)
			}
		})
	}
}
