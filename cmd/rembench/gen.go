package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/remwal"
)

// The inputs are generated here, from the seed alone, and never by the
// program: a change to the program's own simulators or RNG must not
// change what the benchmark feeds it.

const (
	numAPs         = 44 // the vocabulary of every BENCH_rem section
	numWaypoints   = 72 // the paper's survey, split between UAVs A and B
	readingsPerObs = 64 // readings per POST /observe batch
	zipfS          = 1.1
	maxStep        = 0.1 // metres between successive UAV readings
	// shadowSigma is the log-normal shadowing, in dB, drawn afresh for
	// every reading. At 4 dB the path-loss gradient across the scanned
	// room drowned in it: the per-MAC mean won the pipeline's model
	// selection for some seeds and the REM went flat. At 2 dB the same
	// kNN wins for every seed.
	shadowSigma = 2.0
)

// rng is splitmix64: tiny, fast and fully determined by its seed.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*0x100000001b3 ^ uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// norm returns a standard normal value (Box–Muller).
func (r *rng) norm() float64 {
	u := 1 - r.float() // (0, 1]
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*r.float())
}

// world is the radio environment every input is drawn from: APs inside
// a building around the scan volume, and the survey's flight plan. The
// AP positions and the waypoints are the same for every seed, as one
// building and one mission plan would be, so that every seed poses a
// problem of the same size: where the APs stand sets how many keys the
// coverage index keeps per cube, and with it the cost of a strongest
// query. The seed draws the MACs (and so which AP gets which key), the
// shadowing, the Zipf order of the keys and all the traffic.
type world struct {
	vol       geom.Cuboid
	aps       []geom.Vec3
	macs      []string // sorted, as preprocessing orders the vocabulary
	zipf      *zipf    // rank → index into macs, hot keys differ per seed
	waypoints []geom.Vec3
	seed      uint64 // every other input is drawn from it
}

func newWorld(seed uint64) *world {
	r := newRNG(seed, "world")
	layout := newRNG(0, "layout")
	w := &world{vol: geom.PaperScanVolume(), seed: seed}
	type ap struct {
		mac string
		pos geom.Vec3
	}
	seen := map[string]bool{}
	aps := make([]ap, 0, numAPs)
	for len(aps) < numAPs {
		mac := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			byte(r.next())&0xfe|0x02, byte(r.next()), byte(r.next()),
			byte(r.next()), byte(r.next()), byte(r.next()))
		if seen[mac] {
			continue
		}
		seen[mac] = true
		// A floor of neighbouring rooms, 24 m × 24 m around the scanned
		// room, APs mounted between floor and ceiling.
		pos := geom.V(layout.float()*24-10, layout.float()*24-10, layout.float()*3)
		aps = append(aps, ap{mac, pos})
	}
	sort.Slice(aps, func(i, j int) bool { return aps[i].mac < aps[j].mac })
	for _, a := range aps {
		w.macs = append(w.macs, a.mac)
		w.aps = append(w.aps, a.pos)
	}
	w.zipf = newZipf(numAPs, zipfS, r)
	for i := 0; i < numWaypoints; i++ {
		w.waypoints = append(w.waypoints, w.uniformPoint(layout))
	}
	return w
}

// rss is the log-distance model: −40 − 20·log10(d) dBm plus shadowing,
// rounded to whole dBm as a Wi-Fi chip reports it.
func (w *world) rss(k int, p geom.Vec3, r *rng) float64 {
	d := math.Max(0.1, p.Dist(w.aps[k]))
	return math.Round(-40 - 20*math.Log10(d) + shadowSigma*r.norm())
}

// uniformPoint draws a point uniformly in the scan volume.
func (w *world) uniformPoint(r *rng) geom.Vec3 {
	s := w.vol.Size()
	return geom.V(w.vol.Min.X+r.float()*s.X, w.vol.Min.Y+r.float()*s.Y, w.vol.Min.Z+r.float()*s.Z)
}

// survey is the bootstrap dataset: every AP heard at every waypoint,
// half the waypoints flown by UAV A and half by B.
func (w *world) survey() *dataset.Dataset {
	r := newRNG(w.seed, "survey")
	d := &dataset.Dataset{Samples: make([]dataset.Sample, 0, numWaypoints*numAPs)}
	for wp := 0; wp < numWaypoints; wp++ {
		uav := "A"
		if wp >= numWaypoints/2 {
			uav = "B"
		}
		p := w.waypoints[wp]
		for k, mac := range w.macs {
			d.Add(dataset.Sample{
				UAV: uav, Waypoint: wp, X: p.X, Y: p.Y, Z: p.Z,
				TrueX: p.X, TrueY: p.Y, TrueZ: p.Z,
				MAC: mac, SSID: "rembench", RSSI: int(w.rss(k, p, r)), Channel: 1,
			})
		}
	}
	return d
}

// observations draws n ingest batches: one Zipf-drawn AP key each, 64
// readings along a random walk (steps ≤ 0.1 m, reflected at the walls)
// flown alternately by UAV A and UAV B.
func (w *world) observations(n int) []remwal.Batch {
	r := newRNG(w.seed, "observations")
	pos := [2]geom.Vec3{w.uniformPoint(r), w.uniformPoint(r)}
	out := make([]remwal.Batch, n)
	for i := range out {
		k := w.zipf.draw(r)
		b := remwal.Batch{
			Key:    w.macs[k],
			Points: make([]geom.Vec3, readingsPerObs),
			Values: make([]float64, readingsPerObs),
		}
		p := pos[i%2]
		for j := range b.Points {
			p = w.step(p, r)
			b.Points[j] = p
			b.Values[j] = w.rss(k, p, r)
		}
		pos[i%2] = p
		out[i] = b
	}
	return out
}

// step moves p by a uniformly oriented step of length ≤ maxStep,
// reflecting off the scan volume's walls.
func (w *world) step(p geom.Vec3, r *rng) geom.Vec3 {
	z := 2*r.float() - 1
	phi := 2 * math.Pi * r.float()
	rho := math.Sqrt(1 - z*z)
	l := maxStep * (1 - r.float()) // (0, maxStep]
	q := geom.V(p.X+l*rho*math.Cos(phi), p.Y+l*rho*math.Sin(phi), p.Z+l*z)
	return geom.V(bounce(q.X, w.vol.Min.X, w.vol.Max.X), bounce(q.Y, w.vol.Min.Y, w.vol.Max.Y), bounce(q.Z, w.vol.Min.Z, w.vol.Max.Z))
}

func bounce(v, lo, hi float64) float64 {
	if v < lo {
		return 2*lo - v
	}
	if v > hi {
		return 2*hi - v
	}
	return v
}

// query is one generated query: a Zipf-drawn key and a uniform point.
type query struct {
	key int
	p   geom.Vec3
}

// queries draws n query inputs for one client.
func (w *world) queries(stream string, n int) []query {
	r := newRNG(w.seed, stream)
	out := make([]query, n)
	for i := range out {
		out[i] = query{key: w.zipf.draw(r), p: w.uniformPoint(r)}
	}
	return out
}

// coord renders a coordinate so that strconv.ParseFloat returns the
// same bits on the server.
func coord(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// zipf draws ranks 0..n-1 with P(rank r) ∝ (r+1)^-s and maps each rank
// to a key index through a seeded permutation.
type zipf struct {
	cdf  []float64
	perm []int
}

func newZipf(n int, s float64, r *rng) *zipf {
	z := &zipf{cdf: make([]float64, n), perm: make([]int, n)}
	var sum float64
	for i := range z.cdf {
		sum += math.Pow(float64(i+1), -s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	for i := range z.perm {
		z.perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		z.perm[i], z.perm[j] = z.perm[j], z.perm[i]
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	rank := sort.SearchFloat64s(z.cdf, u)
	if rank >= len(z.cdf) {
		rank = len(z.cdf) - 1
	}
	return z.perm[rank]
}
