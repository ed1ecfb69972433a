package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/lease"
	"repro/internal/obs"
)

// waitState polls until the campaign (as served by svc) reaches the
// wanted state.
func waitState(t *testing.T, svc *Service, id, want string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := svc.Get(id)
		if st != nil && st.State == want {
			return
		}
		if time.Now().After(deadline) {
			got := "<unknown>"
			if st != nil {
				got = st.State
			}
			t.Fatalf("campaign %s state = %q, want %q", id, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMultiReplicaAdoption is the drain→handoff path: replica A drains
// mid-campaign (releasing its lease), replica B on the same data root
// adopts the campaign without a restart of anything, and the finished
// report is byte-identical to an uninterrupted single-replica run.
func TestMultiReplicaAdoption(t *testing.T) {
	// Uninterrupted baseline for the byte comparison.
	base := newService(t, Config{})
	baseID, err := base.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, base, baseID); st.State != StateDone {
		t.Fatalf("baseline state = %q (error %q)", st.State, st.Error)
	}
	baseBytes, err := os.ReadFile(filepath.Join(base.cfg.DataDir, baseID, "report.json"))
	if err != nil {
		t.Fatal(err)
	}

	dataDir := t.TempDir()
	var ap *Service
	a, err := New(Config{
		DataDir: dataDir, Owner: "rA", LeaseTTL: 300 * time.Millisecond,
		flowArmed: func(string, *core.Flow) { <-ap.baseCtx.Done() },
	})
	if err != nil {
		t.Fatal(err)
	}
	ap = a
	id, err := a.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, id, StateRunning)
	a.Close() // drain: lease released, on-disk state stays "running"

	b := newService(t, Config{DataDir: dataDir, Owner: "rB", LeaseTTL: 300 * time.Millisecond})
	st := waitDone(t, b, id)
	if st.State != StateDone {
		t.Fatalf("adopted campaign state = %q (error %q)", st.State, st.Error)
	}
	if st.Owner != "rB" {
		t.Fatalf("adopted campaign owner = %q, want rB", st.Owner)
	}
	if st.Epoch < 2 {
		t.Fatalf("adopted campaign epoch = %d, want >= 2 (must fence rA's run)", st.Epoch)
	}
	got, err := os.ReadFile(filepath.Join(dataDir, id, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(baseBytes) {
		t.Fatal("adopted campaign's report.json differs from the uninterrupted baseline")
	}
}

// TestLeaseFencingOnSteal is the kill -9 path in miniature: replica A
// stalls mid-campaign without draining (its lease stops renewing),
// replica B steals the lease and finishes the campaign, and A — still
// holding its dead handle — is fenced out of every terminal write, so
// B's result survives untouched. While fenced, A also reports
// not-ready.
func TestLeaseFencingOnSteal(t *testing.T) {
	dataDir := t.TempDir()
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }

	a, err := New(Config{
		DataDir: dataDir, Owner: "rA", LeaseTTL: 250 * time.Millisecond,
		flowArmed: func(string, *core.Flow) { <-gate },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer release() // must unblock the gate before a.Close drains
	id, err := a.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, a, id, StateRunning)

	// Stall A's renewals — the moral equivalent of a SIGSTOP'd or
	// wedged replica. Its flow is still blocked on the gate.
	a.mu.Lock()
	c := a.campaigns[id]
	a.mu.Unlock()
	c.mu.Lock()
	h := c.lease
	c.mu.Unlock()
	if h == nil {
		t.Fatal("running campaign has no lease handle")
	}
	h.Suspend(true)

	b := newService(t, Config{DataDir: dataDir, Owner: "rB", LeaseTTL: 250 * time.Millisecond})
	st := waitDone(t, b, id)
	if st.State != StateDone {
		t.Fatalf("stolen campaign state = %q (error %q)", st.State, st.Error)
	}
	if st.Owner != "rB" {
		t.Fatalf("stolen campaign owner = %q, want rB", st.Owner)
	}

	// A still believes it is running the campaign; its lease is fenced,
	// so its readiness must fail until the runner unwinds.
	if err := a.Ready(); err == nil || !strings.Contains(err.Error(), "lost lease") {
		t.Fatalf("fenced replica Ready() = %v, want lost-lease error", err)
	}

	doneBytes, err := os.ReadFile(filepath.Join(dataDir, id, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	doneState, err := loadState(filepath.Join(dataDir, id))
	if err != nil {
		t.Fatal(err)
	}

	// Un-stall A: its flow wakes into a canceled context (OnLost fired),
	// hits the fence, and must not touch B's terminal result.
	release()
	deadline := time.Now().Add(15 * time.Second)
	for {
		a.mu.Lock()
		running := a.sched.busy
		a.mu.Unlock()
		if running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fenced campaign never unwound on A")
		}
		time.Sleep(5 * time.Millisecond)
	}
	afterBytes, err := os.ReadFile(filepath.Join(dataDir, id, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(afterBytes) != string(doneBytes) {
		t.Fatal("fenced replica clobbered the adopter's report.json")
	}
	afterState, err := loadState(filepath.Join(dataDir, id))
	if err != nil {
		t.Fatal(err)
	}
	if afterState.State != StateDone || afterState.Owner != doneState.Owner || afterState.Epoch != doneState.Epoch {
		t.Fatalf("fenced replica rewrote campaign.json: %+v", afterState)
	}
	if err := a.Ready(); err != nil {
		t.Fatalf("A not ready after unwinding the fenced campaign: %v", err)
	}
}

// TestFencedFinishWritesNothing: a replica whose lease moved to a
// peer's higher epoch before its terminal write — here a user cancel,
// the run's only terminal write — writes nothing, counts nothing and
// leaves the campaign's waiters open. They close once refresh reads the
// new owner's terminal state.
func TestFencedFinishWritesNothing(t *testing.T) {
	rec := obs.NewRecorder()
	dataDir := t.TempDir()
	var running []byte
	armed := make(chan struct{})
	var svc *Service
	svc = newService(t, Config{DataDir: dataDir, Rec: rec, LeaseTTL: time.Minute,
		flowArmed: func(id string, _ *core.Flow) {
			dir := filepath.Join(dataDir, id)
			var err error
			if running, err = os.ReadFile(filepath.Join(dir, stateFile)); err != nil {
				t.Error(err)
			}
			l, err := lease.Peek(dir)
			if err != nil || l == nil {
				t.Errorf("lease.Peek = %v, %v", l, err)
				return
			}
			l.Owner, l.Epoch = "peer", l.Epoch+1
			if err := atomicfile.WriteJSON(filepath.Join(dir, lease.File), l); err != nil {
				t.Error(err)
			}
			svc.Cancel(id)
			close(armed)
		}})
	id, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	<-armed
	svc.Close() // waits for the runner to unwind
	got, err := os.ReadFile(filepath.Join(dataDir, id, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(running) {
		t.Fatalf("fenced replica rewrote campaign.json:\n%s", got)
	}
	if svc.Done(id) {
		t.Fatal("fenced replica closed the campaign's waiters")
	}
	for name, want := range map[string]uint64{
		"service.fenced": 1, "service.canceled": 0, "service.completed": 0, "service.failed": 0,
	} {
		if n := rec.Counter(name).Value(); n != want {
			t.Fatalf("%s = %d, want %d", name, n, want)
		}
	}

	// The peer finishes the campaign; the next refresh closes the waiters.
	st, err := loadState(filepath.Join(dataDir, id))
	if err != nil {
		t.Fatal(err)
	}
	st.State, st.Owner = StateCanceled, "peer"
	if err := saveState(filepath.Join(dataDir, id), st); err != nil {
		t.Fatal(err)
	}
	if got := svc.Get(id); got.State != StateCanceled || !svc.Done(id) {
		t.Fatalf("after the peer's terminal write: state %q, Done %v", got.State, svc.Done(id))
	}
}

// TestRecoverOrderDeterministic locks the recovery enqueue order:
// previously-running campaigns first, then queued ones, each by
// submission time — never by directory-walk order.
func TestRecoverOrderDeterministic(t *testing.T) {
	dataDir := t.TempDir()
	mk := func(id, state string, submitted time.Time) {
		t.Helper()
		dir := filepath.Join(dataDir, id)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		st := &State{ID: id, Spec: tinySpec(), State: state, SubmittedAt: submitted}
		if err := saveState(dir, st); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)
	// Deliberately inverted: directory order (c1, c2, c3, c4) must not
	// leak into the queue order.
	mk("c000001", StateQueued, t0.Add(3*time.Hour))
	mk("c000002", StateQueued, t0.Add(2*time.Hour))
	mk("c000003", StateRunning, t0.Add(4*time.Hour)) // resumed: jumps the queue
	mk("c000004", StateDone, t0)

	svc := newService(t, Config{
		DataDir: dataDir,
		frozen:  true, // freeze dispatch so the queue is inspectable
	})
	svc.mu.Lock()
	var got []string
	if q := svc.sched.tenants["default"]; q != nil {
		got = append(got, q.ids...)
	}
	nextID := svc.nextID
	svc.mu.Unlock()

	want := []string{"c000003", "c000002", "c000001"}
	if len(got) != len(want) {
		t.Fatalf("recovered queue = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered queue = %v, want %v", got, want)
		}
	}
	if nextID != 5 {
		t.Fatalf("nextID after recovery = %d, want 5", nextID)
	}
	if !svc.Done("c000004") {
		t.Fatal("terminal campaign not closed after recovery")
	}
}

// TestRecoverSkipsTornSubmission: a replica killed between allocating
// a campaign directory and renaming its state file in never
// acknowledged that submission. The directory must not stop the next
// start, and the id allocator must step past it.
func TestRecoverSkipsTornSubmission(t *testing.T) {
	dataDir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dataDir, "c000001"), 0o755); err != nil {
		t.Fatal(err)
	}
	svc := newService(t, Config{DataDir: dataDir, frozen: true})
	id, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if id != "c000002" {
		t.Fatalf("submitted id = %s, want c000002", id)
	}
}

// TestTenantMetricsLabeled: every tenant-attributed series carries the
// tenant label in the OpenMetrics rendering, alongside the unlabeled
// aggregate.
func TestTenantMetricsLabeled(t *testing.T) {
	rec := obs.NewRecorder()
	svc := newService(t, Config{
		MaxQueue:      8,
		Rec:           rec,
		TenantWeights: map[string]float64{"acme": 3},
		frozen:        true, // keep them queued
	})
	spec := tinySpec()
	spec.Tenant = "acme"
	if _, err := svc.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(tinySpec()); err != nil { // default tenant
		t.Fatal(err)
	}
	var om strings.Builder
	if err := obs.WriteOpenMetrics(&om, rec.Metrics); err != nil {
		t.Fatal(err)
	}
	page := om.String()
	for _, want := range []string{
		`service_submitted_total{tenant="acme"} 1`,
		`service_submitted_total{tenant="default"} 1`,
		`service_submitted_total 2`,
		`service_queued{tenant="acme"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics missing %q:\n%s", want, page)
		}
	}

	info := svc.Scheduler()
	if info.Capacity != 0 || info.Queued != 2 {
		t.Fatalf("scheduler info = %+v", info)
	}
	var acme *TenantStat
	for i := range info.Tenants {
		if info.Tenants[i].Tenant == "acme" {
			acme = &info.Tenants[i]
		}
	}
	if acme == nil || acme.Weight != 3 || acme.Queued != 1 {
		t.Fatalf("acme tenant stat = %+v", acme)
	}
}

// TestHTTPConcurrentSubmitSaturation hammers POST /v1/campaigns from
// many goroutines against a small queue: every rejection must carry
// Retry-After, every acceptance must be durable and unique, and
// accepted+rejected must account for every request — no submission
// lost or double-admitted.
func TestHTTPConcurrentSubmitSaturation(t *testing.T) {
	svc, release := gatedService(t, Config{MaxRunning: 1, MaxQueue: 4})
	defer release()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := ts.Client()

	const posts = 24
	ids := make(chan string, posts)
	var rejected, malformed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < posts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := doJSON(t, client, "POST", ts.URL+"/v1/campaigns", tinySpec())
			switch resp.StatusCode {
			case http.StatusAccepted:
				var out struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
					t.Errorf("202 with bad body %s: %v", body, err)
					return
				}
				ids <- out.ID
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				mu.Lock()
				malformed++
				mu.Unlock()
				t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
	close(ids)

	seen := map[string]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("campaign id %s admitted twice", id)
		}
		seen[id] = true
		// Durable: the campaign directory and state exist on disk.
		if _, err := loadState(filepath.Join(svc.cfg.DataDir, id)); err != nil {
			t.Fatalf("accepted campaign %s not durable: %v", id, err)
		}
	}
	if int64(len(seen))+rejected != posts || malformed != 0 {
		t.Fatalf("accounting: %d accepted + %d rejected != %d posts", len(seen), rejected, posts)
	}
	if len(seen) == 0 || rejected == 0 {
		t.Fatalf("saturation not exercised: %d accepted, %d rejected", len(seen), rejected)
	}

	// Everything accepted eventually completes once the gate opens.
	release()
	for id := range seen {
		if st := waitDone(t, svc, id); st.State != StateDone && st.State != StateCanceled {
			t.Fatalf("campaign %s state = %q (error %q)", id, st.State, st.Error)
		}
	}
}
