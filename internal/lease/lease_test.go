package lease

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// holdEnv makes the test binary a lock holder: it takes the lock named
// by the variable's "dir:name:owner" value, says "held" on stdout, and
// sleeps until it is killed.
const holdEnv = "LEASE_TEST_HOLD"

func TestMain(m *testing.M) {
	if spec := os.Getenv(holdEnv); spec != "" {
		parts := strings.SplitN(spec, ":", 3)
		mgr, err := NewManager(Options{Owner: parts[2]})
		if err == nil {
			_, err = mgr.Acquire(parts[0], parts[1])
		}
		if err != nil {
			fmt.Println(err)
			os.Exit(1)
		}
		fmt.Println("held")
		time.Sleep(time.Hour)
	}
	os.Exit(m.Run())
}

func newManager(t *testing.T, owner string) *Manager {
	t.Helper()
	m, err := NewManager(Options{Owner: owner})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot enumerate fds: %v", err)
	}
	return len(ents)
}

func TestAcquireReleaseCycle(t *testing.T) {
	m := newManager(t, "r1")
	dir := t.TempDir()

	h, err := m.Acquire(dir, "lock")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "lock")); err != nil || string(data) != "r1\n" {
		t.Fatalf("lock file = %q, %v; want the owner", data, err)
	}
	h.Release()
	h.Release() // idempotent

	// A released lock is at once free, to any owner.
	h2, err := newManager(t, "r2").Acquire(dir, "lock")
	if err != nil {
		t.Fatalf("Acquire after Release: %v", err)
	}
	h2.Release()
	if data, _ := os.ReadFile(filepath.Join(dir, "lock")); string(data) != "r2\n" {
		t.Fatalf("lock file = %q after r2 held it, want r2", data)
	}
}

func TestAcquireHeldByLiveOwner(t *testing.T) {
	dir := t.TempDir()
	h, err := newManager(t, "r1").Acquire(dir, "lock")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	_, err = newManager(t, "r2").Acquire(dir, "lock")
	if !errors.Is(err, ErrHeld) || !strings.Contains(err.Error(), "held by r1") {
		t.Fatalf("second owner's Acquire err = %v, want ErrHeld naming r1", err)
	}
	// The refused attempt leaves the holder's name in the file.
	if data, _ := os.ReadFile(filepath.Join(dir, "lock")); string(data) != "r1\n" {
		t.Fatalf("lock file = %q after a refused Acquire, want r1", data)
	}
}

// TestAcquireErrorPathsLeakNothing: refused acquisitions, in a loop,
// grow neither the process's descriptors nor the directory.
func TestAcquireErrorPathsLeakNothing(t *testing.T) {
	dir := t.TempDir()
	h, err := newManager(t, "r1").Acquire(dir, "lock")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	m2 := newManager(t, "r2")
	base := openFDs(t)
	for i := 0; i < 20; i++ {
		if _, err := m2.Acquire(dir, "lock"); !errors.Is(err, ErrHeld) {
			t.Fatalf("Acquire of a held lock = %v, want ErrHeld", err)
		}
	}
	if _, err := m2.Acquire(filepath.Join(dir, "no_such_dir"), "lock"); err == nil || errors.Is(err, ErrHeld) {
		t.Fatalf("Acquire in a missing directory = %v, want an I/O error", err)
	}
	if got := openFDs(t); got > base {
		t.Fatalf("open fds grew from %d to %d across refused acquisitions", base, got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %d entries, want the lock file alone", len(ents))
	}
}

func TestConcurrentClaimSingleWinner(t *testing.T) {
	dir := t.TempDir()
	const racers = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		winners int
	)
	for i := 0; i < racers; i++ {
		m := newManager(t, fmt.Sprintf("racer%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Acquire(dir, "lock"); err == nil {
				mu.Lock()
				winners++
				mu.Unlock()
			} else if !errors.Is(err, ErrHeld) {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if winners != 1 {
		t.Fatalf("%d racers took the free lock, want exactly 1", winners)
	}
}

func TestManagerCloseReleasesAll(t *testing.T) {
	m, err := NewManager(Options{Owner: "r1"})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"a", "b"} {
		if _, err := m.Acquire(dir, name); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	m.Close() // idempotent
	other := newManager(t, "r2")
	for _, name := range []string{"a", "b"} {
		h, err := other.Acquire(dir, name)
		if err != nil {
			t.Fatalf("lock %s after manager Close: %v", name, err)
		}
		h.Release()
	}
	if _, err := m.Acquire(dir, "a"); err == nil {
		t.Fatal("Acquire after Close succeeded")
	}
}

// TestOwnerSelfReacquire: a holder killed with SIGKILL never releases
// its lock, and the kernel drops it at once, so the same owner restarted
// takes the lock without waiting.
func TestOwnerSelfReacquire(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), holdEnv+"="+dir+":lock:r1")
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	if line, err := bufio.NewReader(out).ReadString('\n'); err != nil || line != "held\n" {
		t.Fatalf("holder process said %q, %v; want held", line, err)
	}

	m := newManager(t, "r1")
	if _, err := m.Acquire(dir, "lock"); !errors.Is(err, ErrHeld) || !strings.Contains(err.Error(), "held by r1") {
		t.Fatalf("Acquire while the holder process lives = %v, want ErrHeld naming r1", err)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	start := time.Now()
	h, err := m.Acquire(dir, "lock")
	if err != nil {
		t.Fatalf("Acquire after the holder was killed: %v", err)
	}
	h.Release()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Acquire after the kill took %v", d)
	}
}

func TestNewManagerValidation(t *testing.T) {
	for _, owner := range []string{"", "bad\"quote", "two\nlines"} {
		if _, err := NewManager(Options{Owner: owner}); err == nil {
			t.Errorf("owner %q accepted", owner)
		}
	}
}
