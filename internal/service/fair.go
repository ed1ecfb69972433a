package service

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// fairSched is the service's weighted fair-share admission queue
// (DESIGN.md §12): per-tenant FIFO queues picked in stride-scheduling
// order. Each tenant carries a virtual time that advances by 1/weight
// per dispatched campaign, and the scheduler always dispatches the
// backlogged tenant with the smallest virtual time — so over any
// saturated interval, tenants receive campaign starts proportional to
// their weights, while a lone tenant still gets the whole service.
//
// It also keeps the running slots: pop takes one for the dispatched
// campaign's tenant and release gives it back, so busy and the
// per-tenant running and completed tallies have one owner.
//
// Not safe for concurrent use; the Service guards it with its mutex.
type fairSched struct {
	weights map[string]float64 // configured weights; absent tenants weigh 1
	tenants map[string]*tenantQ
	clock   float64 // virtual time of the most recent dispatch
	size    int

	busy      int            // campaigns holding a running slot
	running   map[string]int // running slots by tenant
	completed map[string]int // campaigns done, by tenant
}

type tenantQ struct {
	name  string
	ids   []string
	vtime float64
}

func newFairSched(weights map[string]float64) *fairSched {
	w := make(map[string]float64, len(weights))
	for k, v := range weights {
		if v > 0 {
			w[k] = v
		}
	}
	return &fairSched{weights: w, tenants: map[string]*tenantQ{}, running: map[string]int{}, completed: map[string]int{}}
}

// ParseTenantWeights parses "paid=3,free=1" into Config.TenantWeights.
// Every weight must be a finite positive number: NaN would silently
// weigh 1, and +Inf would starve every other tenant. Empty input yields
// nil (every tenant weighs 1).
func ParseTenantWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	weights := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("malformed pair %q (want name=weight)", pair)
		}
		w, err := strconv.ParseFloat(val, 64)
		if err != nil || !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("weight for %q must be a finite positive number, got %q", name, val)
		}
		weights[name] = w
	}
	return weights, nil
}

func (f *fairSched) weight(tenant string) float64 {
	if w, ok := f.weights[tenant]; ok {
		return w
	}
	return 1
}

// push appends a campaign to its tenant's FIFO. A tenant entering with
// an empty queue is brought up to the scheduler clock — idling never
// banks credit, which is what keeps one silent tenant from starving
// everyone once it wakes up.
func (f *fairSched) push(tenant, id string) {
	q := f.tenants[tenant]
	if q == nil {
		q = &tenantQ{name: tenant, vtime: f.clock}
		f.tenants[tenant] = q
	} else if len(q.ids) == 0 && q.vtime < f.clock {
		q.vtime = f.clock
	}
	q.ids = append(q.ids, id)
	f.size++
}

// pop dispatches the next campaign into a running slot: the backlogged
// tenant with the smallest virtual time (ties broken by name, so
// scheduling is deterministic), FIFO within the tenant.
func (f *fairSched) pop() (id, tenant string, ok bool) {
	var best *tenantQ
	for _, q := range f.tenants {
		if len(q.ids) == 0 {
			continue
		}
		if best == nil || q.vtime < best.vtime || (q.vtime == best.vtime && q.name < best.name) {
			best = q
		}
	}
	if best == nil {
		return "", "", false
	}
	id = best.ids[0]
	best.ids = best.ids[1:]
	f.size--
	f.clock = best.vtime
	best.vtime += 1 / f.weight(best.name)
	f.busy++
	f.running[best.name]++
	return id, best.name, true
}

// release frees a running slot of tenant's, counting a completion when
// done.
func (f *fairSched) release(tenant string, done bool) {
	f.busy--
	f.running[tenant]--
	if done {
		f.completed[tenant]++
	}
}

// remove withdraws a queued campaign (cancellation, peer adoption)
// without charging its tenant's virtual time.
func (f *fairSched) remove(id string) bool {
	for _, q := range f.tenants {
		for i, qid := range q.ids {
			if qid == id {
				q.ids = append(q.ids[:i], q.ids[i+1:]...)
				f.size--
				return true
			}
		}
	}
	return false
}

// contains reports whether the campaign is queued.
func (f *fairSched) contains(id string) bool {
	for _, q := range f.tenants {
		for _, qid := range q.ids {
			if qid == id {
				return true
			}
		}
	}
	return false
}

func (f *fairSched) len() int { return f.size }

// queuedByTenant returns the per-tenant queue depths (only tenants the
// scheduler has ever seen).
func (f *fairSched) queuedByTenant() map[string]int {
	out := make(map[string]int, len(f.tenants))
	for name, q := range f.tenants {
		out[name] = len(q.ids)
	}
	return out
}

// TenantStat is one tenant's scheduler snapshot, served by
// GET /v1/scheduler.
type TenantStat struct {
	Tenant    string  `json:"tenant"`
	Weight    float64 `json:"weight"`
	Queued    int     `json:"queued"`
	Running   int     `json:"running"`
	Completed int     `json:"completed"`
	VTime     float64 `json:"vtime"`
}

// stats renders a deterministic (name-sorted) snapshot. Every tenant
// that ever ran was popped, so the tenant queues name them all.
func (f *fairSched) stats() []TenantStat {
	out := make([]TenantStat, 0, len(f.tenants))
	for n, q := range f.tenants {
		out = append(out, TenantStat{Tenant: n, Weight: f.weight(n), Queued: len(q.ids),
			Running: f.running[n], Completed: f.completed[n], VTime: q.vtime})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
