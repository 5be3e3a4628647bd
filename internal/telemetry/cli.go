package telemetry

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// Flags is the telemetry CLI surface shared by every cmd/ binary:
//
//	-metrics-out=<file.json>  versioned JSON metrics+span export
//	-trace                    phase tree to stderr on exit
//	-pprof-dir=<dir>          cpu.pprof + heap.pprof around the run
//
// Register the flags, Open before the pipeline, defer Close.
type Flags struct {
	MetricsOut string
	Trace      bool
	PprofDir   string
}

// Register installs the flags on fs (use flag.CommandLine in main).
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.MetricsOut, "metrics-out", "",
		"write a JSON metrics + phase-span export to this file")
	fs.BoolVar(&f.Trace, "trace", false,
		"print the phase/span tree (durations, counter deltas) to stderr on exit")
	fs.StringVar(&f.PprofDir, "pprof-dir", "",
		"write cpu.pprof and heap.pprof covering the run to this directory")
}

// Run is one CLI telemetry session. Registry is nil when no collector
// flag was given, keeping the instrumented pipeline on its no-op path.
type Run struct {
	Registry     *Registry
	flags        *Flags
	stopProfiles func() error
}

// Open starts the session: allocates the registry if -metrics-out or
// -trace is set and begins profiling if -pprof-dir was given.
func (f *Flags) Open() (*Run, error) {
	run := &Run{flags: f}
	if f.MetricsOut != "" || f.Trace {
		run.Registry = New()
	}
	stop, err := StartProfiles(f.PprofDir)
	if err != nil {
		return nil, err
	}
	run.stopProfiles = stop
	return run, nil
}

// Close finishes the session: stops profiling, prints the trace tree to
// stderr (-trace), and writes the JSON export (-metrics-out).
func (r *Run) Close() error {
	if r == nil {
		return nil
	}
	var firstErr error
	if err := r.stopProfiles(); err != nil {
		firstErr = fmt.Errorf("telemetry: stopping profiles: %w", err)
	}
	if r.flags.Trace {
		if err := r.Registry.WriteTrace(os.Stderr); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("telemetry: writing trace: %w", err)
		}
	}
	if r.flags.MetricsOut != "" {
		if err := writeFile(r.flags.MetricsOut, r.Registry.WriteJSON); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("telemetry: writing metrics: %w", err)
		}
	}
	return firstErr
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
