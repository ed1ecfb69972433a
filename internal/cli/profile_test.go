package cli

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDisabledProfilingIsNoOp(t *testing.T) {
	stop, err := startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop with no profiles enabled: %v", err)
	}
}

func TestCPUAndHeapProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the CPU profile has something to sample.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

func TestStartFailsOnUnwritableCPUPath(t *testing.T) {
	stop, err := startProfiles(filepath.Join(t.TempDir(), "missing", "cpu.prof"), "")
	if err == nil {
		stop()
		t.Fatalf("startProfiles must fail when the cpu profile file cannot be created")
	}
}

func TestStopReturnsHeapProfileError(t *testing.T) {
	// Heap profile path in a directory that doesn't exist: startProfiles
	// succeeds (the heap file is only created at stop), stop reports
	// the error instead of writing to os.Stderr.
	stop, err := startProfiles("", filepath.Join(t.TempDir(), "missing", "mem.prof"))
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatalf("stop must return the heap-profile creation error")
	}
}

func TestStopIsIdempotentForCPUProfile(t *testing.T) {
	cpu := filepath.Join(t.TempDir(), "cpu.prof")
	stop, err := startProfiles(cpu, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	// The documented contract is "exactly once", but a defensive second
	// call must not double-close the profile file.
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}
