package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"wiban/internal/fleet"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// TestMain lets tests re-exec this binary as the real iobfleet command,
// pinning actual process exit codes and stderr rather than in-process
// error values.
func TestMain(m *testing.M) {
	if os.Getenv("IOBFLEET_RUN_MAIN") == "1" {
		main()
		os.Exit(0) // main returned without failing
	}
	os.Exit(m.Run())
}

// runMain re-executes the test binary as iobfleet with the given args,
// returning the exit code and combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "IOBFLEET_RUN_MAIN=1")
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	runErr := cmd.Run()
	t.Logf("iobfleet %s: %v\n%s", strings.Join(args, " "), runErr, out.String())
	if runErr == nil {
		return 0, out.String()
	}
	var ee *exec.ExitError
	if !errors.As(runErr, &ee) {
		t.Fatal(runErr)
	}
	return ee.ExitCode(), out.String()
}

// TestFeedbackKnobExitCodes pins the real process behavior of the
// feedback flag validation: out-of-domain knobs exit non-zero with a
// usage message before any simulation starts, and a well-formed
// feedback sweep exits zero.
func TestFeedbackKnobExitCodes(t *testing.T) {
	base := []string{"-wearers", "8", "-dur", "1", "-cells", "2", "-feedback"}
	for name, extra := range map[string][]string{
		"zero tolerance":         {"-tol", "0"},
		"negative tolerance":     {"-tol", "-5"},
		"zero iteration cap":     {"-max-iters", "0"},
		"negative iteration cap": {"-max-iters", "-1"},
	} {
		t.Run(name, func(t *testing.T) {
			code, out := runMain(t, append(append([]string{}, base...), extra...)...)
			if code == 0 {
				t.Fatalf("invalid knob %v exited 0", extra)
			}
			if !strings.Contains(out, "usage") {
				t.Errorf("no usage message in output:\n%s", out)
			}
		})
	}
	t.Run("feedback without cells", func(t *testing.T) {
		code, out := runMain(t, "-wearers", "8", "-dur", "1", "-feedback")
		if code == 0 {
			t.Fatal("-feedback without a topology exited 0")
		}
		if !strings.Contains(out, "usage") {
			t.Errorf("no usage message in output:\n%s", out)
		}
	})
	t.Run("valid feedback sweep", func(t *testing.T) {
		code, out := runMain(t, append(append([]string{}, base...), "-workers", "2")...)
		if code != 0 {
			t.Fatalf("valid feedback sweep exited %d", code)
		}
		if !strings.Contains(out, "fingerprint") {
			t.Errorf("no fingerprint line in output:\n%s", out)
		}
	})
}

// TestInvalidInputExitCodes pins the CLI's share of the one sweep
// validation: input the daemon rejects exits 2 with a usage message
// before any simulation starts (the full rejection table lives in
// internal/sweep's TestNormalize). A non-finite -dur used to simulate
// the whole sweep and then panic rendering the fingerprint.
func TestInvalidInputExitCodes(t *testing.T) {
	for name, args := range map[string][]string{
		"dur NaN":            {"-wearers", "8", "-dur", "NaN"},
		"dur +Inf":           {"-wearers", "8", "-dur", "+Inf"},
		"series +Inf":        {"-wearers", "8", "-dur", "1", "-series", "+Inf"},
		"negative workers":   {"-wearers", "8", "-dur", "1", "-workers", "-2"},
		"negative blocksize": {"-wearers", "8", "-dur", "1", "-block-size", "-1"},
		"zero wearers":       {"-wearers", "0", "-dur", "1"},
		"negative dur":       {"-wearers", "8", "-dur", "-5"},
		"resume without out": {"-wearers", "8", "-dur", "1", "-resume"},
	} {
		t.Run(name, func(t *testing.T) {
			code, out := runMain(t, args...)
			if code != 2 {
				t.Fatalf("%v exited %d, want 2", args, code)
			}
			if !strings.Contains(out, "usage") {
				t.Errorf("no usage message in output:\n%s", out)
			}
			if strings.Contains(out, "fingerprint") {
				t.Errorf("a sweep ran before the input was rejected:\n%s", out)
			}
		})
	}
}

// TestDefaultFlagsProduceRunnableFleet mirrors main's construction with
// the default flag values and runs a miniature sweep: if a default ever
// stops validating, the CLI dies on startup — catch that in tests.
func TestDefaultFlagsProduceRunnableFleet(t *testing.T) {
	gen := &fleet.Generator{
		Base:          fleet.DefaultBase(),
		PERSpread:     0.5,
		BatterySpread: 0.3,
		HarvesterProb: 0.3,
		DropNodeProb:  0.25,
		BLEFraction:   0.25,
	}
	if err := gen.Validate(); err != nil {
		t.Fatalf("default generator invalid: %v", err)
	}
	f := &fleet.Fleet{Wearers: 20, Seed: 42, Scenario: gen.Scenario(), Span: 5 * units.Second, Workers: 2}
	rep, _, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wearers != 20 || rep.Nodes < 20 || rep.PacketsDelivered == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
}

// TestSignalCheckpointAndResume pins the graceful-stop contract at the
// process level: a streaming sweep SIGTERMed mid-run exits 0 (not
// signal death) with a resume hint, and rerunning with -resume finishes
// the sweep to the bit-identical fingerprint of an uninterrupted run.
func TestSignalCheckpointAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second signal lifecycle in -short mode")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "sig.wtl")
	args := []string{"-wearers", "6000", "-dur", "30", "-workers", "2",
		"-seed", "21", "-block-size", "64", "-out", out}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "IOBFLEET_RUN_MAIN=1")
	var buf strings.Builder
	cmd.Stdout, cmd.Stderr = &buf, &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Signal only once a block is durable, so the resume leg has a
	// checkpoint to stand on. Create writes an initial wearer-0
	// checkpoint, so existence is not progress: wait for the sidecar's
	// content to move past whatever it held when first observed (each
	// rewrite is temp+rename, so reads are never torn).
	deadline := time.Now().Add(60 * time.Second)
	var initial []byte
	for {
		if b, err := os.ReadFile(telemetry.CheckpointPath(out)); err == nil {
			initial = b
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint after 60s:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		if b, err := os.ReadFile(telemetry.CheckpointPath(out)); err == nil && !bytes.Equal(b, initial) {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no committed block after 60s:\n%s", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("signaled sweep exited non-zero: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "-resume") {
		t.Errorf("no resume hint in output:\n%s", buf.String())
	}

	// The store must be a genuine partial: checkpointed short of the
	// population (the poll guarantees at least one committed block).
	parked, err := telemetry.Resume(out)
	if err != nil {
		t.Fatal(err)
	}
	next := parked.NextWearer()
	parked.Abort()
	if next <= 0 || next >= 6000 {
		t.Fatalf("checkpoint at wearer %d, want a proper prefix of 6000", next)
	}

	code, resumeOut := runMain(t, append(append([]string{}, args...), "-resume")...)
	if code != 0 {
		t.Fatalf("resume leg exited %d", code)
	}
	want, wantOut := runMain(t, "-wearers", "6000", "-dur", "30", "-workers", "2", "-seed", "21")
	if want != 0 {
		t.Fatalf("reference run exited %d", want)
	}
	fp := func(s string) string {
		i := strings.Index(s, "fingerprint ")
		if i < 0 {
			t.Fatalf("no fingerprint line:\n%s", s)
		}
		return strings.Fields(s[i:])[1]
	}
	if got, ref := fp(resumeOut), fp(wantOut); got != ref {
		t.Errorf("resumed fingerprint %s != uninterrupted %s", got, ref)
	}
}

// TestProfileFlags pins the real process behavior of -cpuprofile and
// -memprofile: a sweep run with both exits zero and leaves non-empty
// pprof files behind, and an unwritable profile path fails loudly
// instead of silently profiling nowhere.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pb.gz")
	mem := filepath.Join(dir, "mem.pb.gz")
	code, out := runMain(t,
		"-wearers", "16", "-dur", "2", "-workers", "2",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("profiled sweep exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "fingerprint") {
		t.Errorf("no fingerprint line in output:\n%s", out)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	// Both profile paths must fail fast — before the sweep runs — so a
	// typo'd flag never costs a long simulation its uncommitted tail.
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		code, _ = runMain(t, "-wearers", "4", "-dur", "1",
			flag, filepath.Join(dir, "no", "such", "dir", "prof.out"))
		if code == 0 {
			t.Fatalf("unwritable %s path exited 0", flag)
		}
	}
}
