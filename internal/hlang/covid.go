package hlang

// CovidSource is the paper's running example (Fig 2/Fig 3): a simplified
// COVID-19 contact-tracing backend, written in this repository's
// Datalog-flavored HydroLogic syntax. It is shared by tests, the commands
// and examples, the experiments that deploy it, and the end-to-end
// benchmark.
//
// Handler-by-handler correspondence with Fig 3:
//   - add_person / add_contact: monotonic merges (lines 7-14)
//   - transitive + trace: recursive query over contacts (lines 16-21)
//   - diagnosed: monotonic flag merge + async alert fan-out (lines 23-25)
//   - likelihood: black-box UDF call (lines 27-29)
//   - vaccinate: serializable handler with a non-monotonic decrement and a
//     non-negativity invariant (lines 31-35)
//   - availability / target blocks: lines 37-43
const CovidSource = `
# Simplified COVID-19 tracker (paper Fig 3) in Datalog-flavored HydroLogic.
table people(pid: int, country: string, covid: bool, vaccinated: bool) key(pid) partition(country)
table contacts(a: int, b: int) key(a, b)
var vaccine_count: int = 100

udf covid_predict(int) : float

# transitive closure of the contact graph (Fig 3 lines 16-18)
query transitive(x, y) :- contacts(x, y)
query transitive(x, z) :- transitive(x, y), contacts(y, z)

on add_person(pid: int, country: string) {
    merge people(pid, country, false, false)
    reply "OK"
}

on add_contact(a: int, b: int) {
    merge contacts(a, b)
    merge contacts(b, a)
    reply "OK"
}

on trace(pid: int) {
    send trace_response(p) :- transitive(pid, p)
}

on diagnosed(pid: int) {
    merge people[pid].covid <- true
    send alert(p) :- transitive(pid, p)
    reply "OK"
}

on likelihood(pid: int) {
    reply covid_predict(pid)
}

on vaccinate(pid: int) consistency(serializable) require(vaccine_count >= 0) {
    merge people[pid].vaccinated <- true
    vaccine_count := vaccine_count - 1
    reply "OK"
}

availability {
    default domain=az failures=2
    likelihood domain=az failures=1
}

target {
    default latency=100ms cost=0.01
    likelihood processor=gpu cost=0.1
}
`
