package predict

import "harmony/internal/match"

// CriticalPathParams tunes the refined communication model the paper
// sketches in Section 3.4: "a better way of modeling communication costs
// is by CPU occupancy on either end (for protocol processing, copying),
// plus wire time" — the LogP decomposition it cites.
type CriticalPathParams struct {
	// OccupancySecondsPerMbit charges endpoint CPUs for protocol
	// processing and copying, per megabit transferred.
	OccupancySecondsPerMbit float64
}

// DefaultCriticalPathParams uses a software-TCP-era occupancy of 1 ms per
// megabit on the reference machine.
func DefaultCriticalPathParams() CriticalPathParams {
	return CriticalPathParams{OccupancySecondsPerMbit: 1e-3}
}

// CriticalPath applies the critical-path model to an assignment; see
// Indexed.CriticalPath.
func (p *Predictor) CriticalPath(asg *match.Assignment, selfReserved bool, params CriticalPathParams) (Prediction, error) {
	in, pl, err := p.resolve(asg)
	if err != nil {
		return Prediction{}, err
	}
	return in.CriticalPath(pl, selfReserved, params)
}

// CriticalPath predicts response time by serializing computation,
// communication occupancy, and wire time instead of applying the default
// model's multiplicative contention factor:
//
//	response = cpu + occupancy + wire
//
// where a link requirement of R Mbps over a job whose compute takes cpu
// seconds implies a volume of R·cpu megabits, wire time transfers that
// volume at the link's residual bandwidth, and occupancy charges the
// endpoints' CPUs per megabit. The paper notes this refinement is "not
// difficult or computationally expensive, but less convenient" — it needs
// the volumes the rate×duration product supplies.
func (in Indexed) CriticalPath(pl *Placement, selfReserved bool, params CriticalPathParams) (Prediction, error) {
	pl = in.current(pl)
	base, err := in.Default(pl, selfReserved)
	if err != nil {
		return Prediction{}, err
	}
	cpu := base.CPUSeconds

	// Total volume in megabits across explicit links plus the aggregate
	// communication requirement.
	volume := 0.0
	wire := 0.0
	for k := range pl.links {
		rate := pl.links[k].rate
		if rate <= 0 {
			continue
		}
		lk, reserved, err := in.link(pl, k)
		if err != nil {
			return Prediction{}, err
		}
		v := rate * cpu
		volume += v
		wire += v / availableMbps(lk.BandwidthMbps, reserved, rate, selfReserved)
	}

	occupancy := params.OccupancySecondsPerMbit * volume
	total := cpu + occupancy + wire
	scale := 1.0
	if cpu > 0 {
		scale = total / cpu
	}
	return Prediction{Seconds: total, CPUSeconds: cpu, CommScale: scale}, nil
}

// availableMbps estimates the bandwidth left for this assignment on a
// link: capacity minus other reservations (our own rate is excluded when
// not yet reserved, subtracted back out when it is), floored at a 10%
// share so saturated links yield large-but-finite wire times.
func availableMbps(capacity, reserved, ourRate float64, selfReserved bool) float64 {
	others := reserved
	if selfReserved {
		others -= ourRate
		if others < 0 {
			others = 0
		}
	}
	avail := capacity - others
	floor := capacity * 0.1
	if avail < floor {
		avail = floor
	}
	return avail
}
