package main

import (
	"math"
	"math/rand"

	"hydro/internal/datalog"
	"hydro/internal/serve"
)

// share is one mailbox's percentage of a request mix.
type share struct {
	mailbox string
	pct     int
}

// workload is one traffic mix over one program state. Sizes are per
// --seconds second so a run's work is fixed by its arguments alone: the
// same (workload, seed, seconds) is the same request sequence on every
// commit, whatever the commit's speed.
type workload struct {
	name string
	why  string
	pids int     // person-id universe (zipf s=1.2 over it)
	mix  []share // sums to 100

	pacedRate float64 // open-loop arrivals per second, for pacedShare of --seconds
	satPerSec float64 // closed-loop requests per --seconds second

	// Preload, injected during set-up: preContacts contacts among the
	// prePids most popular ids, and prePersons people.
	prePids, preContacts, prePersons int

	durable bool // durable.Store attached (SyncAlways, default snapshot triggers)
	sharded bool // committed ticks teed into a 3-replica shard.Deployment
}

// pacedShare of --seconds is spent in the paced phase; satPerSec is
// calibrated so the saturate phase fills the rest on the reference host.
const pacedShare = 0.3

// growMix is cmd/hydroload's mix.
var growMix = []share{{"add_person", 20}, {"add_contact", 50}, {"diagnosed", 15}, {"likelihood", 10}, {"vaccinate", 5}}

var workloads = []workload{
	{
		name: "covid-grow",
		why:  "growing state: the all-pairs contact closure grows all run, so Incremental.Apply, Relation.Insert and GC do the work and the serving shell does little",
		pids: 1000, mix: growMix, pacedRate: 800, satPerSec: 1600,
	},
	{
		name: "covid-read",
		why:  "fixed preloaded closure that requests only read: handler closures, PreparedRule.Derive, transducer deliver and the serve shell dominate, apply is small",
		pids: 2000, mix: []share{{"trace", 40}, {"diagnosed", 20}, {"likelihood", 35}, {"vaccinate", 5}},
		pacedRate: 2500, satPerSec: 5000,
		prePids: 468, preContacts: 1500, prePersons: 600,
	},
	{
		name: "covid-durable",
		why:  "covid-grow's mix over 700 ids with a durable.Store (fsync per tick, full snapshot every 1024 records): the only workload where the changelog and snapshot stalls show",
		pids: 700, mix: growMix, pacedRate: 800, satPerSec: 1200, durable: true,
	},
	{
		name: "covid-sharded",
		why:  "every committed tick teed into a 3-replica sharded deployment: Paxos decrees plus BSP exchange rounds per tick, so shard, consensus and simnet carry the run",
		pids: 500, mix: growMix, pacedRate: 200, satPerSec: 500, sharded: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// counts returns the paced and saturate request counts for a run length.
func (w *workload) counts(seconds float64) (paced, sat int) {
	paced = int(math.Round(w.pacedRate * pacedShare * seconds))
	sat = int(math.Round(w.satPerSec * seconds))
	return max(paced, 1), max(sat, 1)
}

// covidPredict is the black-box UDF the program is compiled with; the reply
// oracle recomputes it.
func covidPredict(pid int64) float64 { return float64(pid%100) / 100.0 }

var countries = []string{"us", "fr", "in", "br", "jp"}

// stream generates n requests of the mix from seed. The seed is the only
// input: the program under test sees the requests, never the seed or the
// workload's name.
//
// Ids are drawn by zipf, as cmd/hydroload draws them, with one exception
// that makes the end state the same size for every seed: at even intervals
// through the stream an add_contact names the next id of 0, 1, 2, … as its
// first person, so that by the end every id of the universe has a contact.
// Left to zipf alone the rare ids that happen to appear differ from seed
// to seed, and the closure — the square of their number — with them: 5 %
// on covid-grow's allocation, 13 % on covid-sharded's heap.
func stream(seed int64, pids int, mix []share, n int) []serve.Request {
	if n == 0 {
		return nil
	}
	contacts := 0
	for _, s := range mix {
		if s.mailbox == "add_contact" {
			contacts = n * s.pct / 100
		}
	}
	every, seen, next := max(contacts/pids, 1), 0, int64(0)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(pids-1))
	reqs := make([]serve.Request, n)
	for i := range reqs {
		pid := int64(zipf.Uint64())
		k, mailbox := rng.Intn(100), ""
		for _, s := range mix {
			if k < s.pct {
				mailbox = s.mailbox
				break
			}
			k -= s.pct
		}
		payload := datalog.Tuple{pid}
		switch mailbox {
		case "add_person":
			payload = datalog.Tuple{pid, countries[rng.Intn(len(countries))]}
		case "add_contact":
			if seen++; seen%every == 0 && next < int64(pids) {
				pid = next
				next++
			}
			payload = datalog.Tuple{pid, int64(zipf.Uint64())}
		}
		reqs[i] = serve.Request{Mailbox: mailbox, Payload: payload}
	}
	return reqs
}

// preloadStream is the set-up traffic of a workload with preloaded state.
// Its contacts join the prePids most popular ids into one component — a
// seeded random tree over them plus seeded random extra pairs, in seeded
// order — so every seed preloads a closure of exactly prePids² rows and
// the seed varies only its shape and the order it was built in. (Drawing
// the pairs by zipf, as the measured stream does, moved the component's
// size, and with it the heap and every trace's fan-out, by 6% from seed to
// seed.) Its people are a zipf stream like any other.
func (w *workload) preloadStream(seed int64) []serve.Request {
	if w.preContacts == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	contact := func(a, b int) serve.Request {
		return serve.Request{Mailbox: "add_contact", Payload: datalog.Tuple{int64(a), int64(b)}}
	}
	var reqs []serve.Request
	for i := 1; i < w.prePids; i++ {
		reqs = append(reqs, contact(i, rng.Intn(i)))
	}
	for len(reqs) < w.preContacts {
		reqs = append(reqs, contact(rng.Intn(w.prePids), rng.Intn(w.prePids)))
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return append(reqs, stream(seed^0x9e09, w.pids, []share{{"add_person", 100}}, w.prePersons)...)
}
