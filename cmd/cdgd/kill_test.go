package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// startProcess starts the cdgd binary at bin on an ephemeral port
// against dataDir and returns the process and its base URL.
func startProcess(t *testing.T, bin, dataDir string) (*exec.Cmd, string) {
	t.Helper()
	stdout := &addrWatcher{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-data", dataDir)
	cmd.Stdout = stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	select {
	case addr := <-stdout.addr:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		t.Fatalf("cdgd never reported its listen address; stdout:\n%s", stdout.String())
		return nil, ""
	}
}

// schedulerRunning is the number of campaigns the daemon at url runs.
func schedulerRunning(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/v1/scheduler")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info service.SchedulerInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info.Running
}

// TestCdgdKill9Resumes is the one real-process smoke of a crash: a cdgd
// killed with SIGKILL mid-campaign and restarted at once on the same
// data root runs the campaign again within seconds — the kernel dropped
// the dead daemon's root lock — and finishes it with a report.json
// byte-equal to an uninterrupted run's.
func TestCdgdKill9Resumes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "cdgd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	spec := testSpec(10000)

	// The uninterrupted run, in this process, on a root of its own.
	baseDir := t.TempDir()
	base, err := service.New(service.Config{DataDir: baseDir})
	if err != nil {
		t.Fatal(err)
	}
	baseID, err := base.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	base.Wait(ctx, baseID)
	base.Close()
	want, err := os.ReadFile(filepath.Join(baseDir, baseID, "report.json"))
	if err != nil {
		t.Fatal(err)
	}

	dataDir := t.TempDir()
	daemon, url := startProcess(t, bin, dataDir)
	id := submit(t, url, spec)
	// Kill once the journal holds records past its header.
	var header int64
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st := getState(t, url, id); st.State != service.StateRunning && st.State != service.StateQueued {
			t.Fatalf("campaign left the live states before the kill: %q", st.State)
		}
		if fi, err := os.Stat(filepath.Join(dataDir, id, "flow.journal")); err == nil {
			if header == 0 {
				header = fi.Size()
			} else if fi.Size() > header {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never journaled past its header")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := daemon.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	daemon.Wait()
	killed := time.Now()

	// Running again means running in the new daemon: a campaign.json the
	// dead one left reads "running" too, so count the scheduler's slots.
	_, url = startProcess(t, bin, dataDir)
	for schedulerRunning(t, url) == 0 {
		if time.Since(killed) > 5*time.Second {
			t.Fatalf("campaign not running again %v after the kill", time.Since(killed))
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("campaign running again %v after the kill", time.Since(killed).Round(time.Millisecond))

	if st := waitTerminal(t, url, id, 120*time.Second); st.State != service.StateDone {
		t.Fatalf("resumed campaign state = %q (error %q)", st.State, st.Error)
	}
	got, err := os.ReadFile(filepath.Join(dataDir, id, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed campaign's report.json differs from an uninterrupted run's")
	}
}

// TestCdgdSecondDaemonRefused: a second cdgd on a data root another
// daemon holds exits 1, naming the holder, before it serves anything.
func TestCdgdSecondDaemonRefused(t *testing.T) {
	dataDir := t.TempDir()
	_, _, code := startDaemon(t, dataDir, io.Discard)
	var stderr bytes.Buffer
	second := &addrWatcher{addr: make(chan string, 1)}
	exit := make(chan int, 1)
	go func() { exit <- run([]string{"-listen", "127.0.0.1:0", "-data", dataDir}, second, &stderr) }()
	select {
	case c := <-exit:
		if c != 1 {
			t.Fatalf("second daemon exit code = %d, want 1; stderr:\n%s", c, stderr.String())
		}
	case <-second.addr:
		t.Fatal("a second daemon serves the held data root")
	case <-time.After(30 * time.Second):
		t.Fatal("second daemon neither exited nor served")
	}
	if msg := stderr.String(); !strings.Contains(msg, "lock held by ") || !strings.Contains(msg, dataDir) {
		t.Fatalf("second daemon's stderr does not name the holder:\n%s", msg)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-code:
		if c != 0 {
			t.Fatalf("first daemon exit code = %d, want 0", c)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("first daemon did not exit after SIGTERM")
	}
}
