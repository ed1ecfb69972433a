// Package iounit implements a behavioral model of a processor I/O unit:
// a DMA/CRC engine whose CRC checksum FIFO gives rise to the paper's
// Fig. 3 family of buffer-utilization coverage events (crc_004 ..
// crc_096).
//
// The model substitutes for the proprietary IBM I/O unit (DESIGN.md,
// substitution table). What matters for reproducing the paper is the
// *structure* of the coverage problem, which this model preserves:
//
//   - the crc_* events form an ordered family with a descending gradient
//     of hit probability — deeper FIFO occupancies are strictly harder;
//   - occupancy responds smoothly (but noisily) to the stimuli
//     parameters: the CRC command mix, burst lengths, and inter-command
//     gaps;
//   - hardware pushback (push throttling, entry dropping, random
//     scrubbing, interrupt flushes) keeps the deepest levels rare even
//     under ideal stimuli, mirroring the paper's best-test hit rates
//     (crc_096 reaches only 6.46% there).
package iounit

import (
	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/rng"
	"repro/internal/template"
)

// Micro-architectural constants of the model. They were calibrated so
// that the default regression suite leaves crc_064/crc_096 uncovered
// while an optimized template reaches them with the paper's rough rates;
// see EXPERIMENTS.md.
const (
	simCycles  = 1200 // simulated cycles per test-instance
	fifoCap    = 128  // CRC FIFO capacity
	throttleAt = 56   // occupancy above which push slows to 1/cycle
	dropAt     = 80   // occupancy above which pushes are dropped randomly
	dropProb   = 0.08 // per-entry drop probability above dropAt
	drainProb  = 0.88 // per-cycle probability of draining one entry
	scrubProb  = 0.004
	scrubSize  = 8 // entries removed by a background scrub
)

// Simulate's push stretch adds two entries from below throttleAt with no
// drop draw and no full-FIFO check, which needs throttleAt below dropAt
// and fifoCap: this line stops compiling otherwise.
const _ = uint(dropAt-throttleAt-1) + uint(fifoCap-throttleAt-1)

// The pushback probabilities in the integer form the per-cycle draws use.
var (
	dropBelow  = rng.Threshold(dropProb)
	drainBelow = rng.Threshold(drainProb)
	scrubBelow = rng.Threshold(scrubProb)
)

// crcThresholds are the family's occupancy levels, shallow to deep.
var crcThresholds = []int{4, 8, 16, 32, 64, 96}

// Sizes of the symbolic vocabularies the defaults declare; they size the
// code-indexed event tables.
const (
	numCommands = 5 // Command values
	numChannels = 4 // Channel values
)

// FamilyName is the registered name of the crc_* event family.
const FamilyName = "crc_fifo"

// UnitName is the registry name of this unit.
const UnitName = "iounit"

func init() {
	duv.Register(UnitName, func() duv.DUV { return New() })
}

// IOUnit is the behavioral I/O unit model. It is stateless across
// simulations; all per-instance state lives in Simulate's frame, so one
// instance is safe for concurrent Simulate calls.
type IOUnit struct {
	model    *coverage.Model
	defaults generator.Defaults
	base     []*template.Template

	// Generator handles and vocabulary codes, bound once at construction.
	bind                                              *generator.Binding
	hCommand, hChannel, hBurstLen, hPayloadSize, hGap generator.Handle
	cmdRead, cmdWrite, cmdCRC, cmdIRQ                 int

	// Event IDs resolved once at construction; cmdSeen, chUsed and
	// dmaByCh are indexed by Command and Channel codes.
	crcIDs   []int
	cmdSeen  [numCommands]int
	chUsed   [numChannels]int
	dmaByCh  [numCommands][numChannels]int // rows cmdRead and cmdWrite
	burstIDs [4]int
	evGapZero, evGapLong,
	evPayloadSmall, evPayloadLarge,
	evIRQDuringFill, evFifoFull,
	evBack2Back, evScrubSeen, evDrainIdle int
}

// New constructs the I/O unit model.
func New() *IOUnit {
	u := &IOUnit{}
	u.defaults = duv.DefaultsFromTemplate(duv.MustParseTemplates(defaultsSource)[0])
	u.base = duv.MustParseTemplates(baseSources...)

	bind := generator.Bind(u.defaults)
	u.bind = bind
	u.hCommand = bind.Handle("Command")
	u.hChannel = bind.Handle("Channel")
	u.hBurstLen = bind.Handle("BurstLen")
	u.hPayloadSize = bind.Handle("PayloadSize")
	u.hGap = bind.Handle("Gap")
	u.cmdRead = bind.Code("Command", "dma_read")
	u.cmdWrite = bind.Code("Command", "dma_write")
	u.cmdCRC = bind.Code("Command", "crc")
	u.cmdIRQ = bind.Code("Command", "interrupt")
	commands := bind.Vocabulary("Command") // dma_read, dma_write, crc, interrupt, nop
	channels := bind.Vocabulary("Channel") // ch0 .. ch3

	names := []string{
		"crc_004", "crc_008", "crc_016", "crc_032", "crc_064", "crc_096",
	}
	for _, c := range commands {
		names = append(names, "io_cmd_"+c)
	}
	for _, ch := range channels {
		names = append(names, "io_"+ch+"_used")
	}
	for _, c := range []string{"read", "write"} {
		for _, ch := range channels {
			names = append(names, "io_"+c+"_"+ch)
		}
	}
	names = append(names,
		"io_burst_1_4", "io_burst_5_8", "io_burst_9_16", "io_burst_17_32",
		"io_gap_zero", "io_gap_long",
		"io_payload_small", "io_payload_large",
		"io_irq_during_fill", "io_fifo_full",
		"io_back2back_crc", "io_scrub_seen", "io_drain_idle",
	)
	m := coverage.MustModel(names)
	famNames := []string{"crc_004", "crc_008", "crc_016", "crc_032", "crc_064", "crc_096"}
	if err := m.AddFamily(FamilyName, famNames); err != nil {
		panic(err)
	}
	u.model = m

	for _, fn := range famNames {
		u.crcIDs = append(u.crcIDs, m.MustLookup(fn))
	}
	for code, c := range commands {
		u.cmdSeen[code] = m.MustLookup("io_cmd_" + c)
	}
	for code, ch := range channels {
		u.chUsed[code] = m.MustLookup("io_" + ch + "_used")
		u.dmaByCh[u.cmdRead][code] = m.MustLookup("io_read_" + ch)
		u.dmaByCh[u.cmdWrite][code] = m.MustLookup("io_write_" + ch)
	}
	for i, n := range []string{"io_burst_1_4", "io_burst_5_8", "io_burst_9_16", "io_burst_17_32"} {
		u.burstIDs[i] = m.MustLookup(n)
	}
	u.evGapZero = m.MustLookup("io_gap_zero")
	u.evGapLong = m.MustLookup("io_gap_long")
	u.evPayloadSmall = m.MustLookup("io_payload_small")
	u.evPayloadLarge = m.MustLookup("io_payload_large")
	u.evIRQDuringFill = m.MustLookup("io_irq_during_fill")
	u.evFifoFull = m.MustLookup("io_fifo_full")
	u.evBack2Back = m.MustLookup("io_back2back_crc")
	u.evScrubSeen = m.MustLookup("io_scrub_seen")
	u.evDrainIdle = m.MustLookup("io_drain_idle")
	return u
}

// Name implements duv.DUV.
func (u *IOUnit) Name() string { return UnitName }

// Model implements duv.DUV.
func (u *IOUnit) Model() *coverage.Model { return u.model }

// Defaults implements duv.DUV.
func (u *IOUnit) Defaults() generator.Defaults { return u.defaults }

// BaseTemplates implements duv.DUV.
func (u *IOUnit) BaseTemplates() []*template.Template {
	out := make([]*template.Template, len(u.base))
	for i, t := range u.base {
		out[i] = t.Clone()
	}
	return out
}

// Simulate implements duv.DUV: it drives the unit for simCycles cycles
// with stimuli drawn from g and returns the coverage vector.
func (u *IOUnit) Simulate(g *generator.Generator) coverage.Vector {
	u.bind.Check(g)
	v := coverage.NewVectorFor(u.model)
	r := g.RNG()
	command, channel := g.Choice(u.hCommand), g.Choice(u.hChannel)
	burstLen, payloadSize, gaps := g.Ranges(u.hBurstLen), g.Ranges(u.hPayloadSize), g.Ranges(u.hGap)

	occ := 0      // CRC FIFO occupancy
	maxOcc := 0   // high-water mark
	pushLeft := 0 // CRC entries still to push for the current burst
	busyLeft := 0 // cycles the current non-CRC command still occupies
	gapLeft := 0  // idle cycles before the next command
	lastWasCRC := false
	idleRun := 0 // consecutive cycles at zero occupancy
	wasNonEmpty := false

	for cycle := 0; cycle < simCycles; {
		// Start a new command when the engine is free.
		if pushLeft == 0 && busyLeft == 0 && gapLeft == 0 {
			cmd := command.Code(r)
			v.Set(u.cmdSeen[cmd])
			ch := channel.Code(r)
			v.Set(u.chUsed[ch])

			switch cmd {
			case u.cmdCRC:
				burst := burstLen.Pick(r).Int(r)
				pushLeft = burst
				switch {
				case burst <= 4:
					v.Set(u.burstIDs[0])
				case burst <= 8:
					v.Set(u.burstIDs[1])
				case burst <= 16:
					v.Set(u.burstIDs[2])
				default:
					v.Set(u.burstIDs[3])
				}
				if lastWasCRC {
					v.Set(u.evBack2Back)
				}
				lastWasCRC = true
			case u.cmdRead, u.cmdWrite:
				payload := payloadSize.Pick(r).Int(r)
				if payload <= 16 {
					v.Set(u.evPayloadSmall)
				}
				if payload >= 49 {
					v.Set(u.evPayloadLarge)
				}
				busyLeft = 2 + payload/32
				v.Set(u.dmaByCh[cmd][ch])
				lastWasCRC = false
			case u.cmdIRQ:
				if occ > 8 {
					v.Set(u.evIRQDuringFill)
				}
				occ = 0 // interrupt handler flushes the CRC FIFO
				busyLeft = 4
				lastWasCRC = false
			default: // nop
				busyLeft = 1
				lastWasCRC = false
			}

			gap := gaps.Pick(r).Int(r)
			gapLeft = gap
			if gap == 0 {
				v.Set(u.evGapZero)
			}
			if gap > 24 {
				v.Set(u.evGapLong)
			}
		}

		// Push stretch: a CRC burst in flight holds the engine (busyLeft is
		// 0 and gapLeft waits for the burst), so every cycle until the
		// burst is out or the instance ends pushes one or two entries with
		// hardware pushback, then draws the drain and the scrub.
		if pushLeft > 0 {
			for ; pushLeft > 0 && cycle < simCycles; cycle++ {
				if occ < throttleAt {
					// Two entries pushed from below throttleAt reach
					// neither dropAt nor fifoCap: no drop draw, no full
					// FIFO.
					n := min(pushLeft, 2)
					pushLeft -= n
					occ += n
				} else {
					pushLeft--
					if occ < dropAt || !r.Below(dropBelow) { // else dropped by backpressure
						if occ < fifoCap {
							occ++
						} else {
							v.Set(u.evFifoFull)
						}
					}
				}

				// Background drain and scrub; occ > 0 here, since the
				// push either added an entry or found occ >= throttleAt.
				if r.Below(drainBelow) {
					occ--
				}
				if r.Below(scrubBelow) && occ > 0 {
					v.Set(u.evScrubSeen)
					occ = max(occ-scrubSize, 0)
				}

				maxOcc = max(maxOcc, occ)
				if occ == 0 {
					if wasNonEmpty {
						idleRun++
						if idleRun >= 64 {
							v.Set(u.evDrainIdle)
						}
					}
				} else {
					wasNonEmpty = true
					idleRun = 0
				}
			}
			continue
		}

		// Drain stretch: nothing to push. Until the engine is free, every
		// cycle only counts busy or gap down, draws the drain while the
		// FIFO holds an entry, and draws the scrub: q = max(busy+gap, 1)
		// cycles, capped at the cycles left. Nothing is pushed, so occ only
		// falls and maxOcc cannot move. A negative count (a template's
		// negative range) stalls the engine for good: its stretch is the
		// rest of the instance.
		q := simCycles - cycle
		if pushLeft == 0 && busyLeft >= 0 && gapLeft >= 0 {
			q = min(max(busyLeft+gapLeft, 1), q)
			busyLeft, gapLeft = 0, 0
		}
		end := cycle + q
		for ; occ > 0 && cycle < end; cycle++ {
			if r.Below(drainBelow) {
				occ--
			}
			if r.Below(scrubBelow) && occ > 0 {
				v.Set(u.evScrubSeen)
				occ = max(occ-scrubSize, 0)
			}
			if occ == 0 {
				// The FIFO held entries at the end of the cycle before, so
				// wasNonEmpty holds and idleRun was 0.
				idleRun = 1
			}
		}
		// From an empty FIFO, every cycle left in the stretch makes no
		// drain draw, draws a scrub word that cannot fire at occ == 0 and
		// extends the idle run: skip those draws and jump.
		if occ == 0 {
			r.Skip(end - cycle)
			if wasNonEmpty {
				idleRun += end - cycle
				if idleRun >= 64 {
					v.Set(u.evDrainIdle)
				}
			}
		}
		cycle = end
	}

	for i, th := range crcThresholds {
		if maxOcc >= th {
			v.Set(u.crcIDs[i])
		}
	}
	return v
}

// defaultsSource declares the unit's default parameter behavior in the
// template language.
const defaultsSource = `
template io_defaults {
    weight Command {
        dma_read:  30;
        dma_write: 30;
        crc:       10;
        interrupt: 5;
        nop:       25;
    }
    range BurstLen [1 : 8];
    range Gap [0 : 31];
    weight Channel {
        ch0: 25;
        ch1: 25;
        ch2: 25;
        ch3: 25;
    }
    range PayloadSize [1 : 64];
}
`

// baseSources is the unit's pre-existing regression suite: templates a
// verification team would plausibly have written for everyday goals.
// io_crc_stress is the one that best exercises the CRC FIFO; the
// coarse-grained search is expected to discover that from TAC statistics
// rather than being told.
var baseSources = []string{
	`
template io_regress_default {
    weight Command {
        dma_read:  35;
        dma_write: 35;
        crc:       10;
        interrupt: 5;
        nop:       15;
    }
}
`, `
template io_read_heavy {
    weight Command {
        dma_read:  70;
        dma_write: 10;
        crc:       5;
        interrupt: 5;
        nop:       10;
    }
    range PayloadSize [32 : 64];
}
`, `
template io_write_heavy {
    weight Command {
        dma_read:  10;
        dma_write: 70;
        crc:       5;
        interrupt: 5;
        nop:       10;
    }
    range PayloadSize [32 : 64];
}
`, `
template io_interrupt_storm {
    weight Command {
        dma_read:  20;
        dma_write: 20;
        crc:       5;
        interrupt: 40;
        nop:       15;
    }
    range Gap [0 : 7];
}
`, `
template io_crc_stress {
    weight Command {
        dma_read:  25;
        dma_write: 25;
        crc:       30;
        interrupt: 5;
        nop:       15;
    }
    range BurstLen [1 : 32];
    range Gap [0 : 31];
}
`, `
template io_mixed_burst {
    weight Command {
        dma_read:  25;
        dma_write: 25;
        crc:       20;
        interrupt: 5;
        nop:       25;
    }
    range BurstLen [1 : 16];
    range Gap [0 : 7];
    range PayloadSize [1 : 32];
}
`,
}
