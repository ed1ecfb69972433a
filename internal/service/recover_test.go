package service

import (
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atomicfile"
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

// saveState writes st as the campaign.json of dir.
func saveState(dir string, st *State) error {
	return atomicfile.WriteJSON(filepath.Join(dir, stateFile), st.slim())
}

// TestSecondServiceRefused: a service holds its data root from New to
// Close. A second New on the root is refused, naming the holder, and
// takes the root once the first service closed.
func TestSecondServiceRefused(t *testing.T) {
	dataDir := t.TempDir()
	first, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	holder := "-" + strconv.Itoa(os.Getpid()) + " ("
	if _, err := New(Config{DataDir: dataDir}); !errors.Is(err, lease.ErrHeld) || !strings.Contains(err.Error(), holder) {
		t.Fatalf("New on a held root = %v, want ErrHeld naming this process", err)
	}
	first.Close()
	second := newService(t, Config{DataDir: dataDir})
	id, err := second.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, second, id); st.State != StateDone {
		t.Fatalf("state = %q (error %q), want done", st.State, st.Error)
	}
}

// TestLiveLeaseRefused: a live campaign under an unreleased, unexpired
// lease.json, which is what a daemon of the versions that shared roots
// through per-campaign leases leaves while it runs the campaign, makes
// New refuse the root and name that daemon. A released or expired
// lease, or one on a terminal campaign, does not.
func TestLiveLeaseRefused(t *testing.T) {
	now := time.Now().UTC()
	live := map[string]any{"campaign": "c000001", "owner": "old-replica", "epoch": 4, "renewed_at": now, "ttl_ms": 60000}
	with := func(k string, v any) map[string]any {
		m := maps.Clone(live)
		m[k] = v
		return m
	}
	for _, tc := range []struct {
		name    string
		state   string
		lease   map[string]any
		refused bool
	}{
		{"running", StateRunning, live, true},
		{"queued", StateQueued, live, true},
		{"released", StateRunning, with("released", true), false},
		{"expired", StateRunning, with("renewed_at", now.Add(-2*time.Minute)), false},
		{"done", StateDone, live, false},
	} {
		dataDir := t.TempDir()
		dir := filepath.Join(dataDir, "c000001")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := saveState(dir, &State{ID: "c000001", Spec: tinySpec(), State: tc.state, SubmittedAt: now}); err != nil {
			t.Fatal(err)
		}
		if err := atomicfile.WriteJSON(filepath.Join(dir, "lease.json"), tc.lease); err != nil {
			t.Fatal(err)
		}
		svc, err := New(Config{DataDir: dataDir, frozen: true})
		if tc.refused {
			if err == nil || !strings.Contains(err.Error(), "leased by old-replica") {
				t.Errorf("%s: New = %v, want a refusal naming old-replica", tc.name, err)
			}
		} else if err != nil {
			t.Errorf("%s: New = %v, want the root opened", tc.name, err)
		}
		if svc != nil {
			svc.Close()
		}
		// A refused New released the root's lock.
		if err := os.Remove(filepath.Join(dir, "lease.json")); err != nil {
			t.Fatal(err)
		}
		newService(t, Config{DataDir: dataDir, frozen: true}).Close()
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

// TestListSameAfterRestart: List serves the states campaign.json holds,
// without reports, so a campaign finished in this process is listed as
// a restarted service lists it. It used to carry its reports until the
// restart.
func TestListSameAfterRestart(t *testing.T) {
	dataDir := t.TempDir()
	svc := newService(t, Config{DataDir: dataDir})
	id, err := svc.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, svc, id); st.State != StateDone {
		t.Fatalf("state = %q (error %q), want done", st.State, st.Error)
	}
	before, err := json.Marshal(svc.List())
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	after, err := json.Marshal(newService(t, Config{DataDir: dataDir, frozen: true}).List())
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("List before the restart:\n%s\nafter:\n%s", before, after)
	}
}

// TestRecoverSkipsCopiedDirectory: a copy of a queued campaign's
// directory ("c000001.bak") is not a campaign. Recovery used to parse
// any name that starts "c" and a number, so the copy was adopted and run
// beside the original, and List returned two campaigns with the ID
// c000001; "c12abc" also moved the allocator to c000013.
func TestRecoverSkipsCopiedDirectory(t *testing.T) {
	dataDir := t.TempDir()
	orig := filepath.Join(dataDir, "c000001")
	if err := os.Mkdir(orig, 0o755); err != nil {
		t.Fatal(err)
	}
	st := &State{ID: "c000001", Spec: tinySpec(), State: StateQueued, SubmittedAt: time.Date(2026, 8, 7, 10, 0, 0, 0, time.UTC)}
	if err := saveState(orig, st); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"c000001.bak", "c12abc", "c-3", "c+7", "c 5", "c000000", "c1", "c0000001"} {
		copyTree(t, orig, filepath.Join(dataDir, name))
	}

	svc := newService(t, Config{DataDir: dataDir, frozen: true})
	svc.mu.Lock()
	var queued []string
	if q := svc.sched.tenants["default"]; q != nil {
		queued = append(queued, q.ids...)
	}
	nextID := svc.nextID
	svc.mu.Unlock()
	if len(queued) != 1 || queued[0] != "c000001" {
		t.Errorf("recovered queue = %q, want [c000001]", queued)
	}
	if nextID != 2 {
		t.Errorf("nextID after recovery = %d, want 2", nextID)
	}
	if list := svc.List(); len(list) != 1 {
		t.Errorf("List holds %d campaigns, want 1", len(list))
	}
}

// TestRecoverSkipsTornSubmission: a daemon killed between allocating
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
// tenant label in the OpenMetrics rendering, and each family has one
// label set, so summing a family's samples counts every campaign once.
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
	engine := spec.engineName()
	for _, want := range []string{
		`service_submitted_total{engine="` + engine + `",tenant="acme"} 1`,
		`service_submitted_total{engine="` + engine + `",tenant="default"} 1`,
		`service_queued{tenant="acme"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics missing %q:\n%s", want, page)
		}
	}
	for _, family := range []string{"service_submitted_total", "service_queued"} {
		sum := 0.0
		for _, line := range strings.Split(page, "\n") {
			series, value, _ := strings.Cut(line, " ")
			if name, _, _ := strings.Cut(series, "{"); name == family {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					t.Fatalf("sample %q: %v", line, err)
				}
				sum += v
			}
		}
		if sum != 2 {
			t.Fatalf("the %s samples sum to %v, want 2 (one per campaign):\n%s", family, sum, page)
		}
	}

	info := svc.Scheduler()
	if info.Running != 0 || info.Queued != 2 {
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
