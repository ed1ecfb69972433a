// Package noc implements a behavioral model of a network-on-chip
// router: a 5-port wormhole router with 4 virtual channels and
// credit-based flow control. The paper reports AS-CDG deployed on "many
// units inside two high-end processor systems" beyond the three it
// tables; this unit extends the reproduction's test bed with a fourth,
// structurally different coverage problem that combines both coverage
// shapes in one model:
//
//   - an ordered family retry_d01..retry_d12 over the depth of the
//     retry queue (flits that lost arbitration or ran out of credits) —
//     a buffer-utilization gradient like Figs. 3/4;
//   - a cross product noc_{in}x{vc}x{out} over input port, virtual
//     channel, and output port (4 x 4 x 5 = 80 events) — a Fig. 5-style
//     steering problem (the u-turn slice in=out is unroutable and stays
//     uncovered, like the IFU's entry7 slice).
package noc

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/template"
)

// Router geometry and flow-control constants.
const (
	simCycles    = 1500
	numInports   = 4 // n, s, e, w (local only injects)
	numVCs       = 4
	numOutports  = 5 // n, s, e, w, local
	creditsPerVC = 3
	retryCap     = 16
)

// FamilyName is the registered name of the retry-depth family.
const FamilyName = "retry_depth"

// CrossName is the registered name of the routing cross product.
const CrossName = "noc"

// UnitName is the registry name of this unit.
const UnitName = "noc"

// retryThresholds are the family's queue-depth levels.
var retryThresholds = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}

var (
	inportNames  = []string{"fromN", "fromS", "fromE", "fromW"}
	vcNames      = []string{"vc0", "vc1", "vc2", "vc3"}
	outportNames = []string{"toN", "toS", "toE", "toW", "toL"}
)

// retryDrainBelow is the integer form of the per-cycle probability that
// the retry queue drains one entry.
var retryDrainBelow = rng.Threshold(0.70)

func init() {
	duv.Register(UnitName, func() duv.DUV { return New() })
}

// Router is the behavioral NoC router model. Safe for concurrent
// Simulate calls.
type Router struct {
	model    *coverage.Model
	defaults generator.Defaults
	base     []*template.Template
	cross    *coverage.CrossProduct

	// Generator handles and vocabulary codes, bound once at construction.
	bind                                                              *generator.Binding
	hInjectionRate, hTrafficPattern, hHotspotPort, hVCSel, hPacketLen generator.Handle
	patHotspot, patNeighbor, patTornado                               int
	vcOf                                                              [numVCs]int      // VCSel code -> VC
	hotspotOf                                                         [numOutports]int // HotspotPort code -> outport

	retryIDs []int
	crossIDs [numInports][numVCs][numOutports]int
	evCreditStall, evArbLoss, evRetryDrop,
	evHotspot, evAllVCsBusy, evLongPacket, evUTurn int
}

// New constructs the router model.
func New() *Router {
	cp, err := coverage.NewCrossProduct(CrossName, []coverage.Dim{
		{Name: "inport", Values: inportNames},
		{Name: "vc", Values: vcNames},
		{Name: "outport", Values: outportNames},
	})
	if err != nil {
		panic(err)
	}
	var names []string
	for _, th := range retryThresholds {
		names = append(names, fmt.Sprintf("retry_d%02d", th))
	}
	names = append(names, cp.EventNames()...)
	names = append(names,
		"noc_credit_stall", "noc_arb_loss", "noc_retry_drop",
		"noc_hotspot_seen", "noc_all_vcs_busy", "noc_long_packet",
		"noc_uturn_reject",
	)
	m := coverage.MustModel(names)
	famNames := names[:len(retryThresholds)]
	if err := m.AddFamily(FamilyName, famNames); err != nil {
		panic(err)
	}
	if err := m.AddCross(cp); err != nil {
		panic(err)
	}

	u := &Router{model: m, cross: cp}
	for _, fn := range famNames {
		u.retryIDs = append(u.retryIDs, m.MustLookup(fn))
	}
	for i := 0; i < numInports; i++ {
		for v := 0; v < numVCs; v++ {
			for o := 0; o < numOutports; o++ {
				u.crossIDs[i][v][o] = m.MustLookup(cp.EventName([]int{i, v, o}))
			}
		}
	}
	u.evCreditStall = m.MustLookup("noc_credit_stall")
	u.evArbLoss = m.MustLookup("noc_arb_loss")
	u.evRetryDrop = m.MustLookup("noc_retry_drop")
	u.evHotspot = m.MustLookup("noc_hotspot_seen")
	u.evAllVCsBusy = m.MustLookup("noc_all_vcs_busy")
	u.evLongPacket = m.MustLookup("noc_long_packet")
	u.evUTurn = m.MustLookup("noc_uturn_reject")

	u.defaults = duv.DefaultsFromTemplate(duv.MustParseTemplates(defaultsSource)[0])
	u.base = duv.MustParseTemplates(baseSources...)

	bind := generator.Bind(u.defaults)
	u.bind = bind
	u.hInjectionRate = bind.Handle("InjectionRate")
	u.hTrafficPattern = bind.Handle("TrafficPattern")
	u.hHotspotPort = bind.Handle("HotspotPort")
	u.hVCSel = bind.Handle("VCSel")
	u.hPacketLen = bind.Handle("PacketLen")
	u.patHotspot = bind.Code("TrafficPattern", "hotspot")
	u.patNeighbor = bind.Code("TrafficPattern", "neighbor")
	u.patTornado = bind.Code("TrafficPattern", "tornado")
	for vc, name := range vcNames {
		u.vcOf[bind.Code("VCSel", name)] = vc
	}
	for code, name := range bind.Vocabulary("HotspotPort") { // n, s, e, w, l
		out := slices.Index(outportNames, "to"+strings.ToUpper(name))
		if out < 0 {
			panic(fmt.Sprintf("noc: HotspotPort value %q names no outport", name))
		}
		u.hotspotOf[code] = out
	}
	return u
}

// Name implements duv.DUV.
func (u *Router) Name() string { return UnitName }

// Model implements duv.DUV.
func (u *Router) Model() *coverage.Model { return u.model }

// Cross returns the routing cross product.
func (u *Router) Cross() *coverage.CrossProduct { return u.cross }

// Defaults implements duv.DUV.
func (u *Router) Defaults() generator.Defaults { return u.defaults }

// BaseTemplates implements duv.DUV.
func (u *Router) BaseTemplates() []*template.Template {
	out := make([]*template.Template, len(u.base))
	for i, t := range u.base {
		out[i] = t.Clone()
	}
	return out
}

// outportFor resolves a traffic pattern to an output port for a packet
// entering at inport.
func (u *Router) outportFor(pattern, inport int, hotspotPort generator.Choice, r *rng.RNG) int {
	switch pattern {
	case u.patHotspot:
		// All traffic converges on the hotspot port.
		return u.hotspotOf[hotspotPort.Code(r)]
	case u.patNeighbor:
		// Each inport forwards to its clockwise neighbor (n->e, e->s, ...).
		return (inport + 1) % numInports
	case u.patTornado:
		// Halfway around: opposite port.
		return (inport + 2) % numInports
	default: // uniform over all five outports
		return r.Intn(numOutports)
	}
}

// flit is one in-flight packet at the router.
type flit struct {
	inport, vc, outport int
	remaining           int // flits left to transmit
}

// Simulate implements duv.DUV.
func (u *Router) Simulate(g *generator.Generator) coverage.Vector {
	u.bind.Check(g)
	v := coverage.NewVectorFor(u.model)
	r := g.RNG()
	trafficPattern, hotspotPort, vcSel := g.Choice(u.hTrafficPattern), g.Choice(u.hHotspotPort), g.Choice(u.hVCSel)
	injectionRate, packetLen := g.Ranges(u.hInjectionRate), g.Ranges(u.hPacketLen)

	var credits [numOutports][numVCs]int
	for o := range credits {
		for c := range credits[o] {
			credits[o][c] = creditsPerVC
		}
	}
	// Downstream drains one credit-holding flit per outport per cycle
	// with some jitter. Every active packet holds one credit, so the
	// frame's array never overflows.
	var activeBuf [numOutports * numVCs * creditsPerVC]flit
	active := activeBuf[:0] // packets holding a VC
	retry := 0              // retry queue depth
	maxRetry := 0

	for cycle := 0; cycle < simCycles; cycle++ {
		// Injection at each inport; the switch allocator grants at most
		// two new packets per cycle.
		grants := 0
		for in := 0; in < numInports; in++ {
			if r.Intn(100) >= injectionRate.Pick(r).Int(r) {
				continue
			}
			pattern := trafficPattern.Code(r)
			if pattern == u.patHotspot {
				v.Set(u.evHotspot)
			}
			out := u.outportFor(pattern, in, hotspotPort, r)
			vc := u.vcOf[vcSel.Code(r)]
			length := packetLen.Pick(r).Int(r)
			if length >= 12 {
				v.Set(u.evLongPacket)
			}

			if out == in {
				// U-turns are architecturally forbidden; the router
				// rejects the packet at route computation. The in==out
				// slice of the cross product is therefore unhittable.
				v.Set(u.evUTurn)
				continue
			}
			switch {
			case credits[out][vc] == 0:
				v.Set(u.evCreditStall)
				retryPush(&retry, v, u)
			case grants >= 2:
				// Switch allocation contention: the VC has credits but
				// the crossbar is out of grant slots this cycle.
				v.Set(u.evArbLoss)
				retryPush(&retry, v, u)
			default:
				// Allocate a credit and start transmitting.
				grants++
				credits[out][vc]--
				active = append(active, flit{inport: in, vc: vc, outport: out, remaining: length})
				v.Set(u.crossIDs[in][vc][out])
			}
		}

		// All VCs of some outport busy?
		for o := 0; o < numOutports; o++ {
			busy := 0
			for c := 0; c < numVCs; c++ {
				if credits[o][c] == 0 {
					busy++
				}
			}
			if busy == numVCs {
				v.Set(u.evAllVCsBusy)
			}
		}

		// Transmission: each active packet sends one flit per cycle.
		n := 0
		for _, f := range active {
			f.remaining--
			if f.remaining > 0 {
				active[n] = f
				n++
			} else {
				// Packet done; the downstream drain returns the credit.
				credits[f.outport][f.vc]++
			}
		}
		active = active[:n]

		// Retry queue drains when bandwidth frees up.
		if retry > 0 && r.Below(retryDrainBelow) {
			retry--
		}
		if retry > maxRetry {
			maxRetry = retry
		}
	}

	for i, th := range retryThresholds {
		if maxRetry >= th {
			v.Set(u.retryIDs[i])
		}
	}
	return v
}

// retryPush adds one entry to the retry queue, dropping at capacity.
func retryPush(retry *int, v coverage.Vector, u *Router) {
	if *retry >= retryCap {
		v.Set(u.evRetryDrop)
		return
	}
	*retry++
}

// defaultsSource declares the unit's default parameter behavior: light
// uniform traffic on VC0.
const defaultsSource = `
template noc_defaults {
    weight TrafficPattern {
        uniform:  70;
        hotspot:  5;
        neighbor: 15;
        tornado:  10;
    }
    range InjectionRate [5 : 25];
    range PacketLen [1 : 8];
    weight VCSel {
        vc0: 70;
        vc1: 10;
        vc2: 10;
        vc3: 10;
    }
    weight HotspotPort {
        n: 20;
        s: 20;
        e: 20;
        w: 20;
        l: 20;
    }
}
`

// baseSources is the unit's pre-existing regression suite.
var baseSources = []string{
	`
template noc_regress_uniform {
    weight TrafficPattern {
        uniform:  90;
        hotspot:  0;
        neighbor: 5;
        tornado:  5;
    }
    range InjectionRate [5 : 25];
}
`, `
template noc_neighbor_streams {
    weight TrafficPattern {
        uniform:  10;
        hotspot:  0;
        neighbor: 70;
        tornado:  20;
    }
    range PacketLen [4 : 16];
}
`, `
template noc_hotspot_probe {
    weight TrafficPattern {
        uniform:  30;
        hotspot:  60;
        neighbor: 5;
        tornado:  5;
    }
    range InjectionRate [10 : 40];
    weight VCSel {
        vc0: 40;
        vc1: 20;
        vc2: 20;
        vc3: 20;
    }
}
`, `
template noc_saturation {
    range InjectionRate [25 : 60];
    range PacketLen [4 : 12];
}
`,
}
