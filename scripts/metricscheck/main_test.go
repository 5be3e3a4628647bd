package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validExport = `{
  "version": 1,
  "counters": [{"name": "cost/whatif/calls", "value": 42}],
  "gauges": [],
  "histograms": [],
  "spans": [{"name": "core/compress", "duration_nanos": 1000, "children": []}]
}`

func TestCheckValid(t *testing.T) {
	path := write(t, validExport)
	if err := checkJSON(path, []string{"cost/whatif/calls"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejects(t *testing.T) {
	cases := []struct {
		name, body string
		require    []string
		want       string
	}{
		{"malformed", "{not json", nil, "malformed"},
		{"wrong version", `{"version": 2, "counters": [{"name": "x", "value": 1}], "spans": [{"name": "s"}]}`, nil, "version"},
		{"no counters", `{"version": 1, "counters": [], "spans": [{"name": "s"}]}`, nil, "no counters"},
		{"no spans", `{"version": 1, "counters": [{"name": "x", "value": 1}], "spans": []}`, nil, "no spans"},
		{"missing required", validExport, []string{"core/greedy/rounds"}, "missing"},
		{"zero required", `{"version": 1, "counters": [{"name": "x", "value": 0}], "spans": [{"name": "s"}]}`, []string{"x"}, "want > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkJSON(write(t, tc.body), tc.require, nil)
			if err == nil {
				t.Fatal("check accepted bad export")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// writePkg lays down a tiny package whose literal metric registrations
// the -names-from scan should extract (and whose Sprintf-built and
// test-file names it should ignore).
func writePkg(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := `package p

import "fmt"

type reg struct{}

func (reg) Counter(name string) int   { return 0 }
func (reg) Gauge(name string) int     { return 0 }
func (reg) Histogram(name string) int { return 0 }

func register(r reg, i int) {
	r.Counter("cost/whatif/calls")
	r.Gauge("core/compress/k")
	r.Histogram("core/greedy/argmax_nanos")
	r.Counter(fmt.Sprintf("core/greedy/round%02d", i)) // runtime-built: not scanned
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	testSrc := "package p\n\nfunc testOnly(r reg) { r.Counter(\"test/only/name\") }\n"
	if err := os.WriteFile(filepath.Join(dir, "p_test.go"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestLiteralNames(t *testing.T) {
	names, err := literalNames(writePkg(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"core/compress/k", "core/greedy/argmax_nanos", "cost/whatif/calls"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestNamesFrom(t *testing.T) {
	dir := writePkg(t)
	full := `{
  "version": 1,
  "counters": [{"name": "cost/whatif/calls", "value": 42}],
  "gauges": [{"name": "core/compress/k", "value": 8}],
  "histograms": [{"name": "core/greedy/argmax_nanos", "count": 3}],
  "spans": [{"name": "core/compress", "duration_ns": 1000}]
}`
	if err := checkJSON(write(t, full), nil, []string{dir}); err != nil {
		t.Fatal(err)
	}
	err := checkJSON(write(t, validExport), nil, []string{dir})
	if err == nil {
		t.Fatal("check accepted an export missing registered names")
	}
	for _, name := range []string{"core/compress/k", "core/greedy/argmax_nanos"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list missing name %q", err, name)
		}
	}
	if strings.Contains(err.Error(), "cost/whatif/calls") {
		t.Errorf("error %q lists a name the export does have", err)
	}
	if err := checkJSON(write(t, full), nil, []string{t.TempDir()}); err == nil {
		t.Fatal("check accepted a -names-from dir with no metric names")
	}
}
