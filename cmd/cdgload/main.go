// Command cdgload is the multi-replica chaos load harness for cdgd: it
// boots a replica set over one shared data root, drives a saturating
// stream of campaigns across several tenants, kill -9s replicas while
// they run, and asserts the fleet-level invariants the service layer
// promises (DESIGN.md §12):
//
//   - liveness: every submitted campaign reaches "done" — replicas
//     adopt a dead peer's campaigns, so kill -9 loses nothing;
//   - exclusivity: every campaign is finished by exactly one owner
//     (lease epochs fence the rest);
//   - fairness: over the saturated prefix, campaign starts track the
//     configured tenant weights within -fairness-tol;
//   - determinism: adopted campaigns' report.json bytes are identical
//     to an uninterrupted single-daemon run of the same spec.
//
// Usage:
//
//	go build -o /tmp/cdgd ./cmd/cdgd
//	cdgload -cdgd /tmp/cdgd -replicas 3 -campaigns 48 -kills 3 \
//	        -tenants paid=3,free=1 -lease-ttl 750ms
//
// Exit code 0 means every assertion held; any violation prints to
// stderr and exits 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/duv/iounit"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	cdgd        string
	dataDir     string
	replicas    int
	campaigns   int
	tenants     map[string]float64
	maxRunning  int
	maxQueue    int
	leaseTTL    time.Duration
	kills       int
	killEvery   time.Duration
	timeout     time.Duration
	verify      int
	fairnessTol float64
	tails       int
	seed        int64
	keepData    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdgload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cdgd := fs.String("cdgd", "", "path to the cdgd binary to spawn (required)")
	dataDir := fs.String("data", "", "shared campaign data root (default: a fresh temp dir)")
	replicas := fs.Int("replicas", 3, "cdgd replicas to run over the shared data root")
	campaigns := fs.Int("campaigns", 48, "total campaigns to submit (split evenly across tenants)")
	tenants := fs.String("tenants", "paid=3,free=1", "tenant fair-share weights as name=weight pairs")
	maxRunning := fs.Int("max-running", 2, "per-replica concurrently running campaigns")
	maxQueue := fs.Int("max-queue", 12, "per-replica admission queue depth (submissions retry on 429)")
	leaseTTL := fs.Duration("lease-ttl", 750*time.Millisecond, "campaign lease TTL for the replicas")
	kills := fs.Int("kills", 3, "how many times to kill -9 a replica mid-run (0 disables chaos)")
	killEvery := fs.Duration("kill-every", time.Second, "minimum spacing between kill -9 rounds (rounds are paced by fleet progress)")
	timeout := fs.Duration("timeout", 5*time.Minute, "overall deadline for the whole run")
	verify := fs.Int("verify", 2, "adopted campaigns to re-run on a clean daemon for byte-identical reports (0 disables)")
	fairnessTol := fs.Float64("fairness-tol", 0.10, "relative tolerance on per-tenant start shares (0 disables the check)")
	tails := fs.Int("tails", 3, "campaigns whose JSONL event streams to tail and validate")
	seed := fs.Int64("seed", 1, "base seed; campaign i runs with seed+i")
	keepData := fs.Bool("keep-data", false, "keep the data root for inspection instead of deleting it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := options{
		cdgd: *cdgd, dataDir: *dataDir, replicas: *replicas, campaigns: *campaigns,
		maxRunning: *maxRunning, maxQueue: *maxQueue, leaseTTL: *leaseTTL,
		kills: *kills, killEvery: *killEvery, timeout: *timeout, verify: *verify,
		fairnessTol: *fairnessTol, tails: *tails, seed: *seed, keepData: *keepData,
	}
	var err error
	if opts.tenants, err = parseWeights(*tenants); err != nil {
		fmt.Fprintf(stderr, "cdgload: %v\n", err)
		return 2
	}
	if opts.cdgd == "" {
		fmt.Fprintln(stderr, "cdgload: -cdgd is required (path to a built cdgd binary)")
		return 2
	}
	if opts.replicas < 1 || opts.campaigns < 1 {
		fmt.Fprintln(stderr, "cdgload: -replicas and -campaigns must be positive")
		return 2
	}
	if err := chaosRun(opts, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "cdgload: FAIL: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "cdgload: PASS")
	return 0
}

func parseWeights(s string) (map[string]float64, error) {
	weights := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-tenants: malformed pair %q (want name=weight)", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tenants: weight for %q must be positive, got %q", name, val)
		}
		weights[name] = w
	}
	if len(weights) == 0 {
		return nil, fmt.Errorf("-tenants: at least one tenant is required")
	}
	return weights, nil
}

// replica is one spawned cdgd process. Its address changes across
// respawns; owner identity and the data root do not.
type replica struct {
	idx   int
	owner string

	mu   sync.Mutex
	cmd  *exec.Cmd
	addr string
}

func (r *replica) address() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addr
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// fleet manages the replica set.
type fleet struct {
	opts   options
	stdout io.Writer
	reps   []*replica
}

// spawn starts (or respawns) replica i and waits for its listen line.
func (f *fleet) spawn(r *replica) error {
	args := []string{
		"-listen", "127.0.0.1:0",
		"-data", f.opts.dataDir,
		"-owner", r.owner,
		"-lease-ttl", f.opts.leaseTTL.String(),
		"-max-running", strconv.Itoa(f.opts.maxRunning),
		"-max-queue", strconv.Itoa(f.opts.maxQueue),
		"-retry-after", "1s",
		"-log-level", "warn",
	}
	var pairs []string
	for name, w := range f.opts.tenants {
		pairs = append(pairs, fmt.Sprintf("%s=%g", name, w))
	}
	sort.Strings(pairs)
	args = append(args, "-tenant-weights", strings.Join(pairs, ","))

	cmd := exec.Command(f.opts.cdgd, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	var startupErr bytes.Buffer
	cmd.Stderr = &startupErr
	if err := cmd.Start(); err != nil {
		return err
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		r.mu.Lock()
		r.cmd, r.addr = cmd, addr
		r.mu.Unlock()
		fmt.Fprintf(f.stdout, "cdgload: replica %s up at %s (pid %d)\n", r.owner, addr, cmd.Process.Pid)
		return nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("replica %s never printed its listen address; stderr: %s",
			r.owner, startupErr.String())
	}
}

// kill9 SIGKILLs the replica's current process — no drain, no lease
// release; exactly what a node failure looks like to the peers.
func (f *fleet) kill9(r *replica) {
	r.mu.Lock()
	cmd := r.cmd
	r.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return
	}
	fmt.Fprintf(f.stdout, "cdgload: kill -9 replica %s (pid %d)\n", r.owner, cmd.Process.Pid)
	cmd.Process.Kill()
	cmd.Wait()
}

// replica returns the replica with the given owner identity.
func (f *fleet) replica(owner string) *replica {
	for _, r := range f.reps {
		if r.owner == owner {
			return r
		}
	}
	return nil
}

func (f *fleet) shutdownAll() {
	for _, r := range f.reps {
		f.kill9(r)
	}
}

// get runs one GET against one replica.
func (r *replica) get(path string, out any) error {
	addr := r.address()
	if addr == "" {
		return fmt.Errorf("replica %s not up", r.owner)
	}
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// anyGet tries the request against every live replica until one
// answers — the harness's view must survive any single replica dying.
func (f *fleet) anyGet(path string, out any) error {
	var lastErr error
	for _, r := range f.reps {
		if lastErr = r.get(path, out); lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("no replica answered GET %s: %w", path, lastErr)
}

// running reads the campaign states on the shared data root. The
// owning replica writes a campaign's state when it claims it, so they
// do not lag the way a replica's view of its peers does. It returns the
// owner of the most recently started running campaign (the one
// furthest from finishing; "" if none) and how many running campaigns
// each owner holds. A campaign still running under a killed owner is
// resumed under a new lease epoch by whoever claims it next.
func (f *fleet) running() (newest string, held map[string]int) {
	held = map[string]int{}
	dirs, _ := filepath.Glob(filepath.Join(f.opts.dataDir, "c*", "campaign.json"))
	var newestAt time.Time
	for _, p := range dirs {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		var st service.State
		if json.Unmarshal(data, &st) != nil || st.State != "running" || st.StartedAt == nil {
			continue
		}
		held[st.Owner]++
		if st.StartedAt.After(newestAt) {
			newest, newestAt = st.Owner, *st.StartedAt
		}
	}
	return newest, held
}

// submit POSTs the spec to any replica, retrying 429s (honoring a
// capped Retry-After) and connection errors until the deadline.
func (f *fleet) submit(spec service.Spec, deadline time.Time) (string, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(int64(len(payload)) + time.Now().UnixNano()))
	for {
		r := f.reps[rng.Intn(len(f.reps))]
		addr := r.address()
		if addr != "" {
			resp, err := http.Post("http://"+addr+"/v1/campaigns", "application/json", bytes.NewReader(payload))
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					var out struct {
						ID string `json:"id"`
					}
					if err := json.Unmarshal(body, &out); err != nil || out.ID == "" {
						return "", fmt.Errorf("202 with unusable body %q", body)
					}
					return out.ID, nil
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						return "", fmt.Errorf("429 without Retry-After header")
					}
					// fall through to backoff below
				default:
					return "", fmt.Errorf("POST /v1/campaigns: %d: %s", resp.StatusCode, body)
				}
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("submission deadline exceeded")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// chaosRun is the whole scenario; any violated invariant is an error.
func chaosRun(opts options, stdout, stderr io.Writer) error {
	if opts.dataDir == "" {
		dir, err := os.MkdirTemp("", "cdgload-*")
		if err != nil {
			return err
		}
		opts.dataDir = dir
		if !opts.keepData {
			defer os.RemoveAll(dir)
		}
	}
	deadline := time.Now().Add(opts.timeout)
	// The kill rounds report from their own goroutine while the
	// submission loop reports from this one.
	stdout = &lockedWriter{w: stdout}

	f := &fleet{opts: opts, stdout: stdout}
	for i := 0; i < opts.replicas; i++ {
		f.reps = append(f.reps, &replica{idx: i, owner: fmt.Sprintf("rep%02d", i)})
	}
	for _, r := range f.reps {
		if err := f.spawn(r); err != nil {
			f.shutdownAll()
			return err
		}
	}
	defer f.shutdownAll()

	// Tenant assignment: round-robin over the (sorted) tenant list, so
	// every tenant submits campaigns/len(tenants) campaigns.
	var tenantNames []string
	for name := range opts.tenants {
		tenantNames = append(tenantNames, name)
	}
	sort.Strings(tenantNames)

	// Observer: polls the fleet, recording the order campaigns are first
	// seen off the queue (the fairness signal) and terminal states. It
	// starts before the first submission, because small campaigns finish
	// while later ones are still being submitted.
	obs := newObserver(f, opts.campaigns)
	stopObs := make(chan struct{})
	obsDone := make(chan struct{})
	go func() {
		defer close(obsDone)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopObs:
				return
			case <-t.C:
				obs.poll()
			}
		}
	}()
	defer func() {
		close(stopObs)
		<-obsDone
	}()

	// Chaos runs alongside submission, paced by fleet progress rather
	// than wall time, and every kill lands on a replica running a
	// campaign: it is SIGKILLed, the peers get 2×TTL to steal its
	// leases, and it respawns under the same owner identity.
	stopChaos := make(chan struct{})
	chaosDone := make(chan error, 1)
	go func() {
		chaosDone <- f.killRounds(obs, deadline, stopChaos)
	}()
	var chaosErr error
	waitChaos := sync.OnceFunc(func() {
		close(stopChaos)
		chaosErr = <-chaosDone
	})
	defer waitChaos()

	specs := map[string]service.Spec{}
	tenantOf := map[string]string{}
	var ids []string
	for i := 0; i < opts.campaigns; i++ {
		tenant := tenantNames[i%len(tenantNames)]
		spec := loadSpec(uint64(opts.seed)+uint64(i), tenant)
		id, err := f.submit(spec, deadline)
		if err != nil {
			return fmt.Errorf("submitting campaign %d: %w", i, err)
		}
		specs[id] = spec
		tenantOf[id] = tenant
		ids = append(ids, id)
		obs.add(id)
	}
	fmt.Fprintf(stdout, "cdgload: %d campaigns submitted across tenants %v\n", len(ids), tenantNames)

	// Liveness: every campaign terminal before the deadline.
	for !obs.allDone() {
		if time.Now().After(deadline) {
			return fmt.Errorf("liveness: %s", obs.pendingSummary())
		}
		time.Sleep(100 * time.Millisecond)
	}
	waitChaos()
	if chaosErr != nil {
		return chaosErr
	}

	// Zero lost, none failed, exactly-one-owner bookkeeping.
	states := map[string]*service.State{}
	for _, id := range ids {
		var st service.State
		if err := f.anyGet("/v1/campaigns/"+id, &st); err != nil {
			return fmt.Errorf("campaign %s unreadable after completion: %w", id, err)
		}
		if st.State != "done" {
			return fmt.Errorf("campaign %s ended %q (error %q), want done", id, st.State, st.Error)
		}
		if st.Owner == "" || st.Epoch == 0 {
			return fmt.Errorf("campaign %s missing owner/epoch: %+v", id, st)
		}
		if len(st.Reports) == 0 {
			return fmt.Errorf("campaign %s done without reports", id)
		}
		states[id] = &st
	}
	adopted := 0
	for _, st := range states {
		if st.Epoch > 1 {
			adopted++
		}
	}
	fmt.Fprintf(stdout, "cdgload: all %d campaigns done; %d ran under more than one lease epoch\n",
		len(ids), adopted)
	if opts.kills > 0 && adopted == 0 {
		return fmt.Errorf("chaos ran %d kills but no campaign was ever adopted — the scenario proved nothing", opts.kills)
	}

	// Event tails: the JSONL stream of any campaign must replay from any
	// replica and terminate.
	for i := 0; i < opts.tails && i < len(ids); i++ {
		if err := f.checkTail(ids[i]); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "cdgload: %d event tails replayed clean\n", min(opts.tails, len(ids)))

	// Fairness over the saturated prefix of the observed start order.
	if opts.fairnessTol > 0 && len(tenantNames) > 1 {
		if err := checkFairness(obs.startOrder(), tenantOf, opts.tenants,
			opts.campaigns/len(tenantNames), opts.fairnessTol, stdout); err != nil {
			return err
		}
	}

	// Determinism: adopted campaigns' reports must match a clean run.
	if opts.verify > 0 {
		var sample []string
		for _, id := range ids {
			if states[id].Epoch > 1 {
				sample = append(sample, id)
			}
			if len(sample) == opts.verify {
				break
			}
		}
		if err := f.verifyReports(sample, specs, deadline, stdout); err != nil {
			return err
		}
	}
	return nil
}

// killRounds runs the kill -9 rounds until they are all spent, every
// campaign is done, the deadline passes, or stop closes. Round k waits
// until (k+1)/(kills+1) of the campaigns are done, then for a replica
// that is running one, and kills it. A round whose victim finished its
// campaigns before it died is repeated.
func (f *fleet) killRounds(obs *observer, deadline time.Time, stop <-chan struct{}) error {
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return obs.allDone() || time.Now().After(deadline)
		}
	}
	for k := 0; k < f.opts.kills; k++ {
		threshold := (k + 1) * obs.want / (f.opts.kills + 1)
		if threshold < 1 {
			threshold = 1
		}
		for obs.doneCount() < threshold && !stopped() {
			time.Sleep(25 * time.Millisecond)
		}
		var victim *replica
		for victim == nil && !stopped() {
			owner, _ := f.running()
			if victim = f.replica(owner); victim == nil {
				time.Sleep(5 * time.Millisecond)
			}
		}
		if victim == nil {
			return nil
		}
		f.kill9(victim)
		if _, held := f.running(); held[victim.owner] == 0 {
			fmt.Fprintf(f.stdout, "cdgload: replica %s finished its campaigns before it died; repeating the round\n", victim.owner)
			k--
		}
		time.Sleep(2 * f.opts.leaseTTL) // let peers notice and steal
		if err := f.spawn(victim); err != nil {
			return fmt.Errorf("respawning %s: %w", victim.owner, err)
		}
		time.Sleep(f.opts.killEvery) // spacing floor before the next round
	}
	return nil
}

// lockedWriter serializes writes from concurrent goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// loadSpec is the harness's campaign: the same small iounit family
// target the service tests use, seeded per campaign so every report is
// unique and deterministic.
func loadSpec(seed uint64, tenant string) service.Spec {
	return service.Spec{
		Unit:   iounit.UnitName,
		Family: iounit.FamilyName,
		Decay:  0.4,
		Seed:   seed,
		Tenant: tenant,
		Config: service.SpecConfig{
			CorpusSims:      40,
			TopTemplates:    2,
			Subranges:       2,
			SampleTemplates: 6,
			SampleSims:      8,
			OptIterations:   3,
			OptDirections:   3,
			OptSims:         10,
			BestSims:        60,
			Workers:         2,
		},
	}
}

// observer tracks, via polling, when each campaign is first seen off
// the queue and which are terminal. Submitted ids are added as they are
// accepted; the run is done once all want of them are terminal.
type observer struct {
	f    *fleet
	want int

	mu    sync.Mutex
	ids   []string
	seq   int
	first map[string]int  // id → first-seen-dispatched sequence
	done  map[string]bool // id → terminal observed
}

func newObserver(f *fleet, want int) *observer {
	return &observer{
		f: f, want: want,
		first: map[string]int{}, done: map[string]bool{},
	}
}

func (o *observer) add(id string) {
	o.mu.Lock()
	o.ids = append(o.ids, id)
	o.mu.Unlock()
}

// poll merges every live replica's view. A replica's view of its
// peers' campaigns lags by a janitor pass, its view of its own does
// not, and a terminal state seen anywhere is final.
func (o *observer) poll() {
	for _, r := range o.f.reps {
		var list []*service.State
		if r.get("/v1/campaigns", &list) != nil {
			continue // replica mid-kill; the others still answer
		}
		o.record(list)
	}
}

func (o *observer) record(list []*service.State) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, st := range list {
		switch st.State {
		case "queued":
		case "running":
			if _, ok := o.first[st.ID]; !ok {
				o.first[st.ID] = o.seq
				o.seq++
			}
		default: // terminal
			if _, ok := o.first[st.ID]; !ok {
				o.first[st.ID] = o.seq
				o.seq++
			}
			o.done[st.ID] = true
		}
	}
}

func (o *observer) doneCount() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := 0
	for _, id := range o.ids {
		if o.done[id] {
			n++
		}
	}
	return n
}

func (o *observer) allDone() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.ids) < o.want {
		return false
	}
	for _, id := range o.ids {
		if !o.done[id] {
			return false
		}
	}
	return true
}

func (o *observer) pendingSummary() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var pending []string
	for _, id := range o.ids {
		if !o.done[id] {
			pending = append(pending, id)
		}
	}
	return fmt.Sprintf("%d campaigns never finished: %s", len(pending), strings.Join(pending, " "))
}

// startOrder returns campaign ids in first-dispatch order.
func (o *observer) startOrder() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	ids := make([]string, 0, len(o.first))
	for id := range o.first {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return o.first[ids[i]] < o.first[ids[j]] })
	return ids
}

// checkFairness asserts per-tenant start shares over the saturated
// prefix — the window where every tenant still has backlog, which for
// equal per-tenant submissions ends when the heaviest tenant drains:
// after T = S·Σw/w_max total starts. The first 85% of T avoids the
// drain boundary; within it, each tenant's share of starts must be
// within tol (relative) of weight/Σw, with a small absolute slack for
// start-order observation noise.
func checkFairness(order []string, tenantOf map[string]string, weights map[string]float64,
	perTenant int, tol float64, stdout io.Writer) error {
	var sumW, maxW float64
	for _, w := range weights {
		sumW += w
		if w > maxW {
			maxW = w
		}
	}
	prefix := int(0.85 * float64(perTenant) * sumW / maxW)
	if prefix > len(order) {
		prefix = len(order)
	}
	if prefix < 8 {
		fmt.Fprintf(stdout, "cdgload: fairness: prefix %d too short to judge, skipping\n", prefix)
		return nil
	}
	counts := map[string]int{}
	for _, id := range order[:prefix] {
		counts[tenantOf[id]]++
	}
	slack := 1.5 / float64(prefix)
	for tenant, w := range weights {
		want := w / sumW
		got := float64(counts[tenant]) / float64(prefix)
		fmt.Fprintf(stdout, "cdgload: fairness: tenant %s share %.3f (want %.3f) over first %d starts\n",
			tenant, got, want, prefix)
		if got < want*(1-tol)-slack || got > want*(1+tol)+slack {
			return fmt.Errorf("fairness: tenant %s start share %.3f outside %.0f%% of %.3f (prefix %d)",
				tenant, got, tol*100, want, prefix)
		}
	}
	return nil
}

// checkTail replays a finished campaign's JSONL event stream and
// validates every line parses.
func (f *fleet) checkTail(id string) error {
	var lastErr error
	for _, r := range f.reps {
		addr := r.address()
		if addr == "" {
			continue
		}
		resp, err := http.Get("http://" + addr + "/v1/campaigns/" + id + "/events")
		if err != nil {
			lastErr = err
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("events %s: status %d err %v", id, resp.StatusCode, err)
			continue
		}
		lines := 0
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var ev map[string]any
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return fmt.Errorf("events %s: bad JSONL line %q: %v", id, sc.Text(), err)
			}
			lines++
		}
		if lines == 0 {
			return fmt.Errorf("events %s: stream empty for a finished campaign", id)
		}
		return nil
	}
	return fmt.Errorf("events %s: no replica answered: %w", id, lastErr)
}

// verifyReports re-runs adopted campaigns' specs on a pristine
// single-replica daemon and compares report.json byte-for-byte — the
// "resume is bit-identical" invariant at fleet scale.
func (f *fleet) verifyReports(sample []string, specs map[string]service.Spec,
	deadline time.Time, stdout io.Writer) error {
	if len(sample) == 0 {
		fmt.Fprintln(stdout, "cdgload: verify: no adopted campaigns to verify")
		return nil
	}
	cleanRoot, err := os.MkdirTemp("", "cdgload-verify-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cleanRoot)
	vf := &fleet{
		opts:   f.opts,
		stdout: stdout,
		reps:   []*replica{{idx: 0, owner: "verifier"}},
	}
	vf.opts.dataDir = cleanRoot
	vf.opts.maxQueue = len(sample) + 1
	if err := vf.spawn(vf.reps[0]); err != nil {
		return err
	}
	defer vf.shutdownAll()

	for _, id := range sample {
		vid, err := vf.submit(specs[id], deadline)
		if err != nil {
			return fmt.Errorf("verify %s: %w", id, err)
		}
		for {
			var st service.State
			if err := vf.anyGet("/v1/campaigns/"+vid, &st); err != nil {
				return fmt.Errorf("verify %s: %w", id, err)
			}
			if st.State == "done" {
				break
			}
			if st.State == "failed" || st.State == "canceled" {
				return fmt.Errorf("verify %s: clean re-run ended %q (%s)", id, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("verify %s: clean re-run never finished", id)
			}
			time.Sleep(50 * time.Millisecond)
		}
		chaosBytes, err := os.ReadFile(filepath.Join(f.opts.dataDir, id, "report.json"))
		if err != nil {
			return fmt.Errorf("verify %s: %w", id, err)
		}
		cleanBytes, err := os.ReadFile(filepath.Join(cleanRoot, vid, "report.json"))
		if err != nil {
			return fmt.Errorf("verify %s: %w", id, err)
		}
		if !bytes.Equal(chaosBytes, cleanBytes) {
			return fmt.Errorf("verify %s: adopted campaign's report.json differs from a clean run of the same spec", id)
		}
	}
	fmt.Fprintf(stdout, "cdgload: verify: %d adopted campaigns byte-identical to clean runs\n", len(sample))
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
