// Package clitest runs a cmd/ binary's main function in a child process
// of the package's own test binary, so a CLI's flags, output and exit
// code are tested without a separate build step. In the cmd package:
//
//	func TestMain(m *testing.M) { clitest.Main(m, main) }
//
//	func TestX(t *testing.T) {
//		res := clitest.MustRun(t, "-benchmark", "tpch", "-n", "40")
//		...
//	}
package clitest

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childEnv marks a test binary re-executed by Run: it runs main instead
// of the tests.
const childEnv = "ISUM_CLITEST_CHILD"

// Main is a cmd package's TestMain. In a child started by Run it runs
// main on the child's arguments, with a flag set free of the testing
// flags, and exits 0 when main returns; otherwise it runs the tests.
func Main(m *testing.M, main func()) {
	if os.Getenv(childEnv) == "" {
		os.Exit(m.Run())
	}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()
	os.Exit(0)
}

// Result is what one run of main left behind.
type Result struct {
	Stdout, Stderr string
	Code           int
}

// Run runs main with args in a child process and returns its output and
// exit code. It fails the test only when the child cannot be started.
func Run(t testing.TB, args ...string) Result {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	// A race-enabled child would otherwise sleep 1 s before it exits.
	gorace := strings.TrimSpace(os.Getenv("GORACE") + " atexit_sleep_ms=0")
	cmd.Env = append(os.Environ(), childEnv+"=1", "GORACE="+gorace)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("running main %q: %v", args, err)
		}
	}
	return Result{Stdout: stdout.String(), Stderr: stderr.String(), Code: cmd.ProcessState.ExitCode()}
}

// MustRun is Run that fails the test, showing stderr, unless main exits 0.
func MustRun(t testing.TB, args ...string) Result {
	t.Helper()
	res := Run(t, args...)
	if res.Code != 0 {
		t.Fatalf("main %q exited %d:\n%s", args, res.Code, res.Stderr)
	}
	return res
}

// CheckFlags fails the test unless main's -h lists exactly the flags
// want names, which must be sorted (flag lists them by name).
func CheckFlags(t testing.TB, want []string) {
	t.Helper()
	var got []string
	for _, line := range strings.Split(MustRun(t, "-h").Stderr, "\n") {
		// A flag's first usage line is "  -name", "  -name type" or,
		// for one-letter names, "  -n int\tusage".
		if strings.HasPrefix(line, "  -") {
			got = append(got, strings.TrimPrefix(strings.Fields(line)[0], "-"))
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-h lists flags\n  %s\nwant\n  %s", strings.Join(got, " "), strings.Join(want, " "))
	}
}
