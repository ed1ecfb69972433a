// Package failpoint is a deterministic fault-injection framework
// (DESIGN.md §13). Code under test declares named injection points
// ("farm/serve_chunk", "journal/append", ...); a test or operator arms
// a Registry with per-point policies — inject an error, delay, corrupt
// a payload, drop a message, or panic — at a given rate and for a
// bounded number of firings. Policies draw from a seeded RNG, so a
// fault schedule replays identically run-to-run: the same seed and the
// same call sequence fire the same faults at the same call sites.
//
// Points cost one atomic load while the registry is disarmed (the
// production state), so they are safe to leave in hot paths: the farm
// dispatcher threads them through dial/handshake/frame I/O, the farm
// server through chunk execution, and the journal and service layers
// through their durability and admission paths.
//
// Policies are configured programmatically (Set) or from a spec string
// (Configure), the grammar the -failpoints flag and the
// ASCDG_FAILPOINTS environment variable share:
//
//	name=kind[(arg)][:rate[:times]][,name=...]
//
// e.g. "farm/serve_chunk=corrupt:0.5,journal/append=error:1:2" corrupts
// half of all served chunk results and fails the journal's next two
// appends. "seed=N" is a reserved pair that reseeds the schedule RNG.
package failpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Injected faults are reported through these sentinels so callers (and
// tests) can tell injected failures from organic ones.
var (
	// ErrInjected is the base error every injected failure wraps.
	ErrInjected = errors.New("failpoint: injected failure")
	// ErrDropped marks a drop policy firing: the caller should discard
	// the message/result instead of failing. It wraps ErrInjected.
	ErrDropped = fmt.Errorf("%w (dropped)", ErrInjected)
)

// Kind enumerates what a policy does when it fires.
type Kind int

const (
	// KindError makes the point return ErrInjected.
	KindError Kind = iota
	// KindDelay sleeps for the policy's Delay, then succeeds — the
	// straggler-injection policy.
	KindDelay
	// KindCorrupt deterministically mutates the payload passed to
	// Bytes/Uints and succeeds — the byzantine-worker policy. At a
	// payload-less point (Eval) it degrades to KindError.
	KindCorrupt
	// KindDrop returns ErrDropped: the caller swallows the message.
	KindDrop
	// KindPanic panics — the crash-injection policy.
	KindPanic
)

var kindNames = map[Kind]string{
	KindError:   "error",
	KindDelay:   "delay",
	KindCorrupt: "corrupt",
	KindDrop:    "drop",
	KindPanic:   "panic",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Policy is one point's behavior.
type Policy struct {
	Kind Kind
	// Delay is the injected latency for KindDelay.
	Delay time.Duration
	// Rate is the per-evaluation firing probability in (0, 1]; 0 means 1
	// (always fire).
	Rate float64
	// Times bounds how often the policy fires (0: unlimited). Once spent
	// the point becomes a no-op.
	Times int
}

// String renders the policy in Configure's grammar.
func (p Policy) String() string {
	s := p.Kind.String()
	if p.Kind == KindDelay {
		s += "(" + p.Delay.String() + ")"
	}
	rate := p.Rate
	if rate == 0 {
		rate = 1
	}
	if rate != 1 || p.Times > 0 {
		s += ":" + strconv.FormatFloat(rate, 'g', -1, 64)
	}
	if p.Times > 0 {
		s += ":" + strconv.Itoa(p.Times)
	}
	return s
}

// ParsePolicy parses one policy in the kind[(arg)][:rate[:times]]
// grammar: "error", "delay(250ms)", "corrupt:0.5", "drop:1:3", "panic".
func ParsePolicy(s string) (Policy, error) {
	var p Policy
	head, tail, _ := strings.Cut(s, ":")
	name, arg := head, ""
	if i := strings.IndexByte(head, '('); i >= 0 {
		if !strings.HasSuffix(head, ")") {
			return p, fmt.Errorf("failpoint: malformed policy %q (unclosed argument)", s)
		}
		name, arg = head[:i], head[i+1:len(head)-1]
	}
	found := false
	for k, kn := range kindNames {
		if kn == name {
			p.Kind, found = k, true
			break
		}
	}
	if !found {
		return p, fmt.Errorf("failpoint: unknown policy kind %q (want error, delay, corrupt, drop or panic)", name)
	}
	switch {
	case p.Kind == KindDelay:
		if arg == "" {
			return p, fmt.Errorf("failpoint: policy %q needs a duration argument, e.g. delay(250ms)", s)
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return p, fmt.Errorf("failpoint: policy %q: bad duration %q", s, arg)
		}
		p.Delay = d
	case arg != "":
		return p, fmt.Errorf("failpoint: policy kind %q takes no argument", name)
	}
	p.Rate = 1
	if tail != "" {
		rateStr, timesStr, hasTimes := strings.Cut(tail, ":")
		rate, err := strconv.ParseFloat(rateStr, 64)
		// Written so that NaN, which fails every comparison, is refused.
		if err != nil || !(rate > 0 && rate <= 1) {
			return p, fmt.Errorf("failpoint: policy %q: rate must be in (0, 1], got %q", s, rateStr)
		}
		p.Rate = rate
		if hasTimes {
			times, err := strconv.Atoi(timesStr)
			if err != nil || times <= 0 {
				return p, fmt.Errorf("failpoint: policy %q: times must be a positive integer, got %q", s, timesStr)
			}
			p.Times = times
		}
	}
	return p, nil
}

// point is one armed injection point.
type point struct {
	policy    Policy
	remaining int // firings left; -1 unlimited (guarded by Registry.mu)
	fired     uint64
}

// Registry holds a set of armed points plus the seeded RNG that decides
// probabilistic firings. The zero value is ready to use (seed 1) and
// disarmed. All methods are safe for concurrent use and nil-safe, so a
// component can hold an optional *Registry without guarding call sites.
type Registry struct {
	armed atomic.Bool // fast path: any point armed at all?

	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
}

// New returns a disarmed registry whose fault schedule is driven by the
// given RNG seed.
func New(seed int64) *Registry {
	r := &Registry{}
	r.Seed(seed)
	return r
}

// Default is the process-wide registry the -failpoints flag and
// ASCDG_FAILPOINTS configure; components that take no explicit registry
// use it.
var Default = New(1)

// Seed reseeds the registry's schedule RNG.
func (r *Registry) Seed(seed int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rng = rand.New(rand.NewSource(seed))
	r.mu.Unlock()
}

// Set arms (or re-arms) one point with a policy.
func (r *Registry) Set(name string, p Policy) {
	if r == nil || name == "" {
		return
	}
	if p.Rate == 0 {
		p.Rate = 1
	}
	r.mu.Lock()
	if r.points == nil {
		r.points = map[string]*point{}
	}
	remaining := -1
	if p.Times > 0 {
		remaining = p.Times
	}
	r.points[name] = &point{policy: p, remaining: remaining}
	r.armed.Store(true)
	r.mu.Unlock()
}

// Clear disarms one point.
func (r *Registry) Clear(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.points, name)
	r.armed.Store(len(r.points) > 0)
	r.mu.Unlock()
}

// Reset disarms every point (the RNG keeps its state).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.points = nil
	r.armed.Store(false)
	r.mu.Unlock()
}

// Configure parses a -failpoints spec ("name=policy,name=policy") and
// arms every listed point. The reserved pair "seed=N" reseeds the
// schedule RNG. An empty spec is a no-op. On error the registry is
// left unchanged.
func (r *Registry) Configure(spec string) error {
	if r == nil || strings.TrimSpace(spec) == "" {
		return nil
	}
	type armed struct {
		name string
		p    Policy
	}
	var list []armed
	var seed *int64
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || val == "" {
			return fmt.Errorf("failpoint: malformed spec entry %q (want name=policy)", pair)
		}
		if name == "seed" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return fmt.Errorf("failpoint: bad seed %q", val)
			}
			seed = &n
			continue
		}
		p, err := ParsePolicy(val)
		if err != nil {
			return err
		}
		list = append(list, armed{name, p})
	}
	if seed != nil {
		r.Seed(*seed)
	}
	for _, a := range list {
		r.Set(a.name, a.p)
	}
	return nil
}

// trigger decides whether the named point fires now and, if so, returns
// its policy. One lock acquisition; rate and times accounting happen
// under it so schedules are deterministic.
func (r *Registry) trigger(name string) (Policy, bool) {
	if r == nil || !r.armed.Load() {
		return Policy{}, false
	}
	r.mu.Lock()
	p := r.points[name]
	if p == nil || p.remaining == 0 {
		r.mu.Unlock()
		return Policy{}, false
	}
	if p.policy.Rate < 1 {
		if r.rng == nil {
			r.rng = rand.New(rand.NewSource(1))
		}
		if r.rng.Float64() >= p.policy.Rate {
			r.mu.Unlock()
			return Policy{}, false
		}
	}
	if p.remaining > 0 {
		p.remaining--
	}
	p.fired++
	pol := p.policy
	r.mu.Unlock()
	return pol, true
}

// Eval evaluates a payload-less injection point: nil when disarmed or
// the policy did not fire; ErrInjected/ErrDropped, a delay, or a panic
// when it did. A corrupt policy at a payload-less point injects an
// error (there is nothing to corrupt).
func (r *Registry) Eval(name string) error {
	pol, ok := r.trigger(name)
	if !ok {
		return nil
	}
	switch pol.Kind {
	case KindDelay:
		time.Sleep(pol.Delay)
		return nil
	case KindDrop:
		return fmt.Errorf("%w at %s", ErrDropped, name)
	case KindPanic:
		panic("failpoint: injected panic at " + name)
	default: // KindError, KindCorrupt
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
}

// Bytes evaluates an injection point owning a byte payload. A corrupt
// policy flips bits in a deterministically chosen byte (guaranteeing
// the payload actually changes) and returns nil; other kinds behave as
// in Eval.
func (r *Registry) Bytes(name string, b []byte) error {
	pol, ok := r.trigger(name)
	if !ok {
		return nil
	}
	if pol.Kind != KindCorrupt {
		return r.apply(name, pol)
	}
	if len(b) == 0 {
		return nil
	}
	r.mu.Lock()
	i := r.rng.Intn(len(b))
	bit := byte(1) << uint(r.rng.Intn(8))
	r.mu.Unlock()
	b[i] ^= bit
	return nil
}

// Uints evaluates an injection point owning a uint64 payload (dense
// coverage hit arrays). A corrupt policy perturbs a deterministically
// chosen element by a nonzero delta and returns nil; other kinds behave
// as in Eval.
func (r *Registry) Uints(name string, v []uint64) error {
	pol, ok := r.trigger(name)
	if !ok {
		return nil
	}
	if pol.Kind != KindCorrupt {
		return r.apply(name, pol)
	}
	if len(v) == 0 {
		return nil
	}
	r.mu.Lock()
	i := r.rng.Intn(len(v))
	delta := uint64(1 + r.rng.Intn(1000))
	r.mu.Unlock()
	v[i] += delta
	return nil
}

// apply realizes a non-corrupt policy that already fired.
func (r *Registry) apply(name string, pol Policy) error {
	switch pol.Kind {
	case KindDelay:
		time.Sleep(pol.Delay)
		return nil
	case KindDrop:
		return fmt.Errorf("%w at %s", ErrDropped, name)
	case KindPanic:
		panic("failpoint: injected panic at " + name)
	default:
		return fmt.Errorf("%w at %s", ErrInjected, name)
	}
}

// Fired reports how many times the named point has fired.
func (r *Registry) Fired(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.points[name]; p != nil {
		return p.fired
	}
	return 0
}

// PointState is one armed point's snapshot.
type PointState struct {
	Name   string `json:"name"`
	Policy string `json:"policy"`
	Fired  uint64 `json:"fired"`
}

// Snapshot lists every armed point, sorted by name — the shape banners
// and debug endpoints print.
func (r *Registry) Snapshot() []PointState {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PointState, 0, len(r.points))
	for name, p := range r.points {
		out = append(out, PointState{Name: name, Policy: p.policy.String(), Fired: p.fired})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Armed reports whether any point is armed.
func (r *Registry) Armed() bool { return r != nil && r.armed.Load() }

// Package-level wrappers over Default, for call sites without an
// explicit registry (journal, service).

// Eval evaluates a point on the Default registry.
func Eval(name string) error { return Default.Eval(name) }

// Bytes evaluates a byte-payload point on the Default registry.
func Bytes(name string, b []byte) error { return Default.Bytes(name, b) }

// Uints evaluates a uint64-payload point on the Default registry.
func Uints(name string, v []uint64) error { return Default.Uints(name, v) }

// Configure arms the Default registry from a -failpoints spec.
func Configure(spec string) error { return Default.Configure(spec) }
