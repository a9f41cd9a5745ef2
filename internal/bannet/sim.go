package bannet

import (
	"fmt"

	"wiban/internal/desim"
	"wiban/internal/energy"
	"wiban/internal/mac"
	"wiban/internal/partition"
	"wiban/internal/units"
)

// packet is one queued transfer unit.
type packet struct {
	created desim.Time
	retries int
}

// packetQueue is a growable ring buffer of packets. The hot loop pushes one
// packet per generation event and pops one per transmission attempt; the
// ring keeps both O(1) without the slice-shift churn of a naive queue and
// retains its capacity across runs of a reused Sim.
type packetQueue struct {
	buf  []packet
	head int
	n    int
}

func (q *packetQueue) len() int { return q.n }

func (q *packetQueue) push(p packet) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = p
	q.n++
}

func (q *packetQueue) pop() packet {
	p := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return p
}

func (q *packetQueue) grow() {
	nb := make([]packet, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = nb, 0
}

func (q *packetQueue) reset() { q.head, q.n = 0, 0 }

// nodeState is the runtime state of one node. States live in the Sim's
// arena: init rebinds one to a (possibly different) node configuration
// while keeping every grown buffer — packet ring, latency slices,
// battery state — so a Sim recycled across scenarios stops allocating
// once the arena has warmed to the population's high-water shape.
type nodeState struct {
	cfg       NodeConfig
	effPER    float64 // 1−(1−PER)·(1−CollisionPER), drawn per attempt
	outRate   units.DataRate
	queue     packetQueue
	stats     NodeStats
	latencies []units.Duration
	airTime   units.Duration // cumulative transmit air time
	// Inference window assembly.
	windowBits  int64
	windowStart desim.Time
	infLat      []units.Duration
	// Battery drain (DrainBattery mode).
	battState *energy.State
	dead      bool
	diedAt    desim.Time
	// Series sampling window: attempts since the last sample, how many
	// failed, and how many of those failures were collision-attributed.
	winAttempts   int64
	winFails      int64
	winCollisions int64
}

// init rebinds the state to a node configuration and resets it. Every
// configuration-derived field is overwritten; only buffer capacity
// survives from the previous occupant.
func (st *nodeState) init(nc NodeConfig, out units.DataRate) {
	st.cfg = nc
	st.effPER = 1 - (1-nc.PER)*(1-nc.CollisionPER)
	st.outRate = out
	if nc.DrainBattery {
		if st.battState == nil {
			st.battState = energy.NewState(nc.Battery)
		} else {
			st.battState.Reinit(nc.Battery)
		}
	} else {
		st.battState = nil
	}
	st.reset()
}

// reset returns the node to its pre-run state, keeping allocated buffers.
func (st *nodeState) reset() {
	st.queue.reset()
	st.stats = NodeStats{Name: st.cfg.Name}
	st.latencies = st.latencies[:0]
	st.airTime = 0
	st.windowBits = 0
	st.windowStart = 0
	st.infLat = st.infLat[:0]
	if st.battState != nil {
		st.battState.Reset()
	}
	st.dead = false
	st.diedAt = 0
	st.winAttempts = 0
	st.winFails = 0
	st.winCollisions = 0
}

// continuousPower is the node's always-on draw: sensing, ISA compute and
// the radio sleep floor.
func (st *nodeState) continuousPower() units.Power {
	return st.cfg.Sensor.AFEPower + st.cfg.Policy.ComputePower() + st.cfg.Radio.Sleep
}

// drain debits the battery in DrainBattery mode and reports whether the
// node is still alive.
func (st *nodeState) drain(e units.Energy, now desim.Time) bool {
	if st.battState == nil || st.dead {
		return !st.dead
	}
	if !st.battState.Draw(e) || st.battState.Depleted() {
		st.dead = true
		st.diedAt = now
	}
	return !st.dead
}

// hubServer is a single-queue deterministic-service inference server.
type hubServer struct {
	platform  *partition.Platform
	busyUntil desim.Time
	busyTotal desim.Time
	energy    units.Energy
}

func (h *hubServer) reset() {
	h.busyUntil = 0
	h.busyTotal = 0
	h.energy = 0
}

// enqueue admits a job created at start and returns its completion time.
func (h *hubServer) enqueue(now, start desim.Time, macs int64) desim.Time {
	service := desim.FromSeconds(float64(macs) / h.platform.MACRate)
	begin := now
	if h.busyUntil > begin {
		begin = h.busyUntil
	}
	done := begin + service
	h.busyUntil = done
	h.busyTotal += service
	h.energy += units.Energy(float64(h.platform.EnergyPerMAC) * float64(macs))
	return done
}

// defaultTDMA and defaultHub are the shared read-only defaults for
// configs that leave TDMA or HubCompute nil, so a recycled Sim does not
// rebuild them per Reset.
var (
	defaultTDMA = mac.DefaultTDMA()
	defaultHub  = partition.HubSoC()
)

// Sim is a reusable simulation kernel arena. NewSim validates the
// configuration, builds the TDMA schedule and allocates runtime state;
// each Run replays the scenario from a clean state, reusing the packet
// rings, latency buffers and the discrete-event kernel's event arena.
// Reset rebinds the same arena to a different configuration — node
// states, demand slices, the schedule's slot table and the event queue
// are all recycled — so a fleet worker that sweeps many scenarios on one
// Sim is allocation-free once the arena has warmed to the population's
// high-water node count.
//
// A Sim is not safe for concurrent use; run one Sim per goroutine.
// Reports produced by Run borrow the Sim's schedule: they stay valid
// until the next Reset.
type Sim struct {
	seed     int64
	tdma     *mac.TDMA
	schedule mac.Schedule
	demands  []mac.Demand
	hub      hubServer
	states   []nodeState
	kern     *desim.Simulator

	// superframe is the cached event-time form of the TDMA period.
	superframe desim.Time

	// rep is the report under construction during a run; the cached tick
	// closures below reach it (and the states) through the Sim receiver,
	// so scheduling a run allocates no per-run closures.
	rep     *Report
	genFns  []func()
	harvFns []func()
	frameFn func()

	// Series sampling (SetSeries). The configuration survives Reset; the
	// cursors are rearmed per run and seriesBuf is the reused sample arena
	// handed to the sink, keeping the steady state allocation-free.
	seriesEvery units.Duration
	seriesSink  SeriesSink
	seriesStep  desim.Time
	seriesNext  desim.Time
	seriesLast  desim.Time
	seriesBuf   []SeriesSample
}

// NewSim validates the configuration, builds the TDMA schedule and
// allocates runtime state. The returned Sim can be Run any number of
// times; each run is independent and deterministic in cfg.Seed.
func NewSim(cfg Config) (*Sim, error) {
	s := &Sim{kern: desim.New(0)}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebinds the Sim to a new configuration, revalidating it and
// rebuilding the TDMA schedule while recycling every arena buffer. It is
// equivalent to NewSim except that nothing is reallocated once the arena
// has seen an equal-or-larger configuration. On error the Sim must be
// Reset successfully before it is run again.
func (s *Sim) Reset(cfg Config) error {
	if len(cfg.Nodes) == 0 {
		return fmt.Errorf("bannet: no nodes")
	}
	tdma := cfg.TDMA
	if tdma == nil {
		tdma = defaultTDMA
	}

	// Validate every node before touching the arena, in the order NewSim
	// always has (the first offending node wins).
	for _, nc := range cfg.Nodes {
		if nc.Sensor == nil || nc.Policy == nil || nc.Radio == nil || nc.Battery == nil {
			return fmt.Errorf("bannet: node %q incompletely specified", nc.Name)
		}
		if nc.PacketBits <= 0 {
			return fmt.Errorf("bannet: node %q has no packet size", nc.Name)
		}
		if nc.PER < 0 || nc.PER >= 1 {
			return fmt.Errorf("bannet: node %q PER %v outside [0,1)", nc.Name, nc.PER)
		}
		if nc.CollisionPER < 0 || nc.CollisionPER >= 1 {
			return fmt.Errorf("bannet: node %q collision PER %v outside [0,1)", nc.Name, nc.CollisionPER)
		}
		if nc.Inference != nil && (nc.Inference.MACs <= 0 || nc.Inference.InputBits <= 0) {
			return fmt.Errorf("bannet: node %q has a degenerate inference spec", nc.Name)
		}
		out := nc.Policy.OutputRate(nc.Sensor.DataRate())
		if out > nc.Radio.Goodput {
			return fmt.Errorf("bannet: node %q rate %v exceeds radio goodput %v",
				nc.Name, out, nc.Radio.Goodput)
		}
	}

	// Rebind node states and TDMA demands into the reused buffers.
	if n := len(cfg.Nodes); n <= cap(s.states) {
		s.states = s.states[:n]
	} else {
		s.states = append(s.states[:cap(s.states)], make([]nodeState, n-cap(s.states))...)
	}
	s.demands = s.demands[:0]
	for i, nc := range cfg.Nodes {
		out := nc.Policy.OutputRate(nc.Sensor.DataRate())
		s.states[i].init(nc, out)
		// Slot sizing includes retransmission headroom: a link with packet
		// error rate p needs ≈ 1/(1−p) attempts per delivered packet, plus
		// 20% margin against burstiness. Deliberately sized from the link
		// PER alone, not CollisionPER: the TDMA scheduler can provision for
		// its own channel but not for other wearers' interference.
		demand := units.DataRate(float64(out) / (1 - nc.PER) * 1.2)
		s.demands = append(s.demands, mac.Demand{NodeID: nc.ID, Rate: demand, PacketBits: nc.PacketBits})
	}
	if err := tdma.BuildInto(s.demands, &s.schedule); err != nil {
		return err
	}
	s.tdma = tdma
	s.superframe = desim.FromSeconds(float64(tdma.Superframe))
	s.seed = cfg.Seed

	hubPlatform := cfg.HubCompute
	if hubPlatform == nil {
		hubPlatform = defaultHub
	}
	s.hub = hubServer{platform: hubPlatform}
	return nil
}

// Schedule returns the TDMA schedule built for the configuration. The
// returned pointer aliases the Sim's arena: its contents change on the
// next Reset.
func (s *Sim) Schedule() *mac.Schedule { return &s.schedule }

// SetSeed changes the seed subsequent Runs replay from.
func (s *Sim) SetSeed(seed int64) { s.seed = seed }

// genFn returns the cached packet-generation tick for node i.
func (s *Sim) genFn(i int) func() {
	for len(s.genFns) <= i {
		j := len(s.genFns)
		s.genFns = append(s.genFns, func() { s.genTick(j) })
	}
	return s.genFns[i]
}

// genTick queues one packet at node i's output rate.
func (s *Sim) genTick(i int) {
	st := &s.states[i]
	if st.dead {
		return
	}
	st.queue.push(packet{created: s.kern.Now()})
	st.stats.PacketsGenerated++
}

// harvFn returns the cached harvest-sampling tick for node i.
func (s *Sim) harvFn(i int) func() {
	for len(s.harvFns) <= i {
		j := len(s.harvFns)
		s.harvFns = append(s.harvFns, func() { s.harvTick(j) })
	}
	return s.harvFns[i]
}

// harvTick samples node i's harvester over one simulated second.
func (s *Sim) harvTick(i int) {
	st := &s.states[i]
	e := st.cfg.Harvester.Sample(s.kern.Rand()).Times(units.Second)
	st.stats.Harvested += e
	if st.battState != nil && !st.dead {
		st.battState.Recharge(e)
	}
}

// frameTick is the superframe body: at each node's slot, drain up to the
// slot capacity with PER-driven retries.
func (s *Sim) frameTick() {
	kern, report := s.kern, s.rep
	// Series sampling rides the superframe event rather than its own
	// kernel event: the sample reflects the state left by the previous
	// frame, and the event count the Report fingerprints stays identical
	// with sampling on or off.
	if s.seriesSink != nil && kern.Now() >= s.seriesNext {
		s.emitSeries(kern.Now())
		s.seriesNext += s.seriesStep
	}
	beaconTime := float64(s.schedule.BeaconTime)
	for i := range s.states {
		st := &s.states[i]
		if st.dead {
			continue
		}
		// Continuous drain (sensing + ISA + sleep floor) plus the
		// beacon cost debits the battery in DrainBattery mode.
		syncE := st.cfg.Radio.ActiveRX.Times(units.Duration(beaconTime)) +
			st.cfg.Radio.WakeEnergy
		cont := st.continuousPower().Times(units.Duration(s.superframe.Seconds()))
		if !st.drain(cont+syncE, kern.Now()) {
			continue
		}
		// Beacon listen: every node wakes and receives the beacon.
		st.stats.SyncEnergy += syncE
		slot := s.schedule.SlotFor(st.cfg.ID)
		if slot == nil {
			continue
		}
		budget := slot.CapacityBits
		for st.queue.len() > 0 && budget >= int64(st.cfg.PacketBits) {
			p := st.queue.pop()
			budget -= int64(st.cfg.PacketBits)
			air := st.cfg.Radio.TimeOnAir(st.cfg.PacketBits)
			txE := st.cfg.Radio.ActiveTX.Times(air)
			if !st.drain(txE, kern.Now()) {
				break
			}
			st.stats.TxEnergy += txE
			st.airTime += air
			st.stats.Transmissions++
			st.winAttempts++
			// One uniform draw decides delivery AND attributes the failure
			// cause, keeping the RNG stream identical to the pre-series
			// kernel: u < CollisionPER is a collision (probability cPER),
			// CollisionPER ≤ u < effPER is link loss (probability
			// PER·(1−cPER), exactly the residual), u ≥ effPER delivers.
			u := kern.Rand().Float64()
			if u >= st.effPER {
				// Delivered.
				lat := units.Duration((kern.Now() - p.created).Seconds())
				st.latencies = append(st.latencies, lat)
				st.stats.PacketsDelivered++
				st.stats.BitsDelivered += int64(st.cfg.PacketBits)
				report.HubRxBits += int64(st.cfg.PacketBits)
				report.HubRxEnergy += st.cfg.Radio.ActiveRX.Times(air)
				// Assemble inference input windows and dispatch to
				// the hub NPU queue.
				if spec := st.cfg.Inference; spec != nil {
					if st.windowBits == 0 {
						st.windowStart = p.created
					}
					st.windowBits += int64(st.cfg.PacketBits)
					for st.windowBits >= spec.InputBits {
						st.windowBits -= spec.InputBits
						done := s.hub.enqueue(kern.Now(), st.windowStart, spec.MACs)
						e2e := units.Duration((done - st.windowStart).Seconds())
						st.infLat = append(st.infLat, e2e)
						st.stats.Inferences++
						st.windowStart = kern.Now()
					}
				}
				continue
			}
			// Failed: selective-repeat ARQ — requeue at the back (or
			// drop past the retry budget) and keep draining the slot.
			st.winFails++
			if u < st.cfg.CollisionPER {
				st.winCollisions++
			}
			p.retries++
			if p.retries > st.cfg.MaxRetries {
				st.stats.PacketsDropped++
				continue
			}
			st.queue.push(p)
		}
	}
}

// Run simulates the network for the given span from a clean state and
// returns a freshly allocated report. Runs are independent: the same Sim
// run twice with the same seed and span produces identical reports. The
// report's Schedule aliases the Sim's arena (valid until the next Reset);
// callers on the zero-allocation path use RunInto instead.
func (s *Sim) Run(span units.Duration) (*Report, error) {
	rep := &Report{}
	if err := s.RunInto(span, rep); err != nil {
		return nil, err
	}
	rep.Schedule = &s.schedule
	return rep, nil
}

// RunInto simulates the network for the given span from a clean state
// into rep, reusing rep's node-stats buffer. It is the allocation-free
// form of Run: once the Sim's arena and rep's buffers have warmed, a
// Reset–RunInto cycle performs no heap allocation (pinned by the
// steady-state regression test). rep.Schedule is left nil — the schedule
// is per-kernel arena state, available via Schedule.
func (s *Sim) RunInto(span units.Duration, rep *Report) error {
	if span <= 0 {
		return fmt.Errorf("bannet: non-positive span")
	}
	for i := range s.states {
		s.states[i].reset()
	}
	s.hub.reset()
	s.kern.Reset(s.seed)
	*rep = Report{Nodes: rep.Nodes[:0]}
	s.rep = rep

	// Packet generation: one event per packet at the node's output rate.
	for i := range s.states {
		st := &s.states[i]
		if st.outRate <= 0 {
			continue
		}
		interval := desim.FromSeconds(float64(st.cfg.PacketBits) / float64(st.outRate))
		if interval < desim.Microsecond {
			interval = desim.Microsecond
		}
		s.kern.Periodic(interval, interval, s.genFn(i))
	}

	// Superframe processing.
	if s.frameFn == nil {
		s.frameFn = s.frameTick
	}
	s.kern.Periodic(s.superframe, s.superframe, s.frameFn)

	// Harvesting: sample each harvester once per simulated second.
	for i := range s.states {
		if s.states[i].cfg.Harvester == nil {
			continue
		}
		s.kern.Periodic(desim.Second, desim.Second, s.harvFn(i))
	}

	// Arm the series cursors: first sample at the cadence (quantized up
	// to the next superframe boundary by frameTick), last sample rearmed
	// so the tail emission below fires at most once.
	if s.seriesSink != nil {
		s.seriesStep = desim.FromSeconds(float64(s.seriesEvery))
		if s.seriesStep < s.superframe {
			s.seriesStep = s.superframe
		}
		s.seriesNext = s.seriesStep
		s.seriesLast = 0
	}

	end := desim.FromSeconds(float64(span))
	s.kern.RunUntil(end)
	rep.Duration = span
	rep.Events = s.kern.Executed()

	// Tail sample: close the final window at the end of the span unless a
	// cadence sample already landed exactly there, so every run yields at
	// least one sample per node and the books balance for short spans.
	if s.seriesSink != nil && s.seriesLast < end {
		s.emitSeries(end)
	}

	// Close the books: continuous power components over each node's
	// lifespan (the full span, or until battery death).
	for i := range s.states {
		st := &s.states[i]
		stats := &st.stats
		life := span
		if st.dead {
			stats.Died = true
			stats.DiedAt = units.Duration(st.diedAt.Seconds())
			life = stats.DiedAt
		}
		stats.SenseEnergy = st.cfg.Sensor.AFEPower.Times(life)
		stats.ISAEnergy = st.cfg.Policy.ComputePower().Times(life)
		sleepSpan := life - st.airTime
		if sleepSpan < 0 {
			sleepSpan = 0
		}
		stats.SleepEnergy = st.cfg.Radio.Sleep.Times(sleepSpan)

		stats.AvgPower = stats.TotalEnergy().At(life)
		stats.ProjectedLife = st.cfg.Battery.Lifetime(stats.AvgPower)
		if st.dead && stats.DiedAt < stats.ProjectedLife {
			stats.ProjectedLife = stats.DiedAt
		}
		harvestPower := stats.Harvested.At(life)
		stats.Perpetual = stats.ProjectedLife >= energy.PerpetualLife || harvestPower >= stats.AvgPower

		// Latency percentiles by selection: p50p99 picks the values a
		// sort would index (see its comment for why they are the same).
		if len(st.latencies) > 0 {
			stats.LatencyP50, stats.LatencyP99 = p50p99(st.latencies)
		}
		if len(st.infLat) > 0 {
			stats.InferenceP50, stats.InferenceP99 = p50p99(st.infLat)
		}
		rep.Nodes = append(rep.Nodes, *stats)
	}
	rep.HubComputeEnergy = s.hub.energy
	rep.HubUtilization = units.Clamp(s.hub.busyTotal.Seconds()/float64(span), 0, 1)
	s.rep = nil
	return nil
}
