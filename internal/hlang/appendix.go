package hlang

// The paper says the Appendix A runtimes (actors, futures, MPI collectives)
// and the §7.1 shopping cart are HydroLogic programs and so inherit its
// facets. These are those programs; each is compiled by hydrolysis and run
// on the transducer, hosted on the cluster when it spans nodes.

// CartSource is the Dynamo shopping cart of §7.1 with its seal placed at
// the client. Items are rows and quantities a max lattice, so replicas
// merge adds in any order, and anti-entropy (sync) is an addressed send.
// The client's seal is its manifest, one message per line, each carrying
// the line count. A replica checks out once it holds every line at its
// sealed quantity: a threshold on a growing count, so every handler is
// monotone and no replica coordinates.
const CartSource = `
table items(cart: string, item: string, qty: max<int>) key(cart, item)
table manifest(cart: string, item: string, qty: int) key(cart, item)
table sealed(cart: string, lines: int) key(cart)

# manifest lines this replica holds at their sealed quantity or more
query met(c, count<i>) :- manifest(c, i, q), items(c, i, n), n >= q
query ready(c) :- met(c, k), sealed(c, n), k >= n

on add(cart: string, item: string, qty: int) {
    merge items(cart, item, qty)
}

# anti-entropy: push every item row to a peer replica
on sync(peer: string) {
    send add@peer(c, i, q) :- items(c, i, q)
}

on seal(cart: string, item: string, qty: int, lines: int) {
    merge manifest(cart, item, qty)
    merge sealed(cart, lines)
}

on checkout(cart: string) {
    send shipped(cart) :- ready(cart)
}
`

// ActorsSource is Appendix A.1's actor model. An actor is a row of
// actor(id, kind) and spawning one is a merge; a message is a row of a
// mailbox, addressed by actor id, and a behaviour is that mailbox's
// handler, gated by the actor's kind. The mid-method receive parks its
// continuation as a waiting(actor, request) row holding the pre-work's
// result; messages to a waiting actor buffer as inbox rows it has not
// heard, and the decision resumes from the row.
const ActorsSource = `
table actor(id: string, kind: string) key(id)
table squares(worker: string, sq: int) key(worker)
table rounds(actor: string, n: int) key(actor)
table pings(actor: string, n: max<int>) key(actor)
table waiting(actor: string, request: string) key(actor)
table inbox(actor: string, msg: string) key(actor, msg)
table outcome(actor: string, result: string) key(actor)

query total(sum<sq>) :- squares(_, sq)
query busy(a) :- waiting(a, _)
query heard(a, m) :- inbox(a, m), !busy(a)

# the supervisor spawns a worker and hands it its number
on task(worker: string, x: int) {
    merge actor(worker, "worker")
    send square(worker, x)
}

on square(worker: string, x: int) require(actor[worker].kind == "worker") {
    merge squares(worker, x * x)
}

# ping-pong: the pinger sends n pings, the next one on each pong
on play(pinger: string, ponger: string, n: int) {
    merge rounds(pinger, n)
    merge pings(pinger, 1)
    send ping(ponger, pinger)
}

on ping(to: string, from: string) {
    send pong(from, to)
}

on pong(to: string, from: string) {
    merge pings[to].n <- pings[to].n + 1
    send ping(from, to) :- pings(to, k), rounds(to, n), k < n
}

# mid-method receive: do the pre-work, then park until the decision
on request(to: string, req: string) {
    merge waiting(to, "prepared(" + req + ")")
}

on chat(to: string, msg: string) {
    merge inbox(to, msg)
}

on decide(to: string, decision: string) require(waiting[to].request != "") {
    merge outcome(to, waiting[to].request + " -> " + decision)
    delete waiting(to)
}
`

// FuturesSource is Appendix A.2's promises and futures. remote(id, arg)
// launches the call at once (Ray's eager kickoff); defer(id, arg) parks it
// in pending until get(id) drains it (lazy kickoff). The request mailbox
// call runs the remote function, a udf, once; the response mailbox resolve
// fills resolved(id, v), the future. A send carries variables and
// constants, not a computed value, so the value waits in result between
// the two.
const FuturesSource = `
udf f(int) : int

table pending(id: int, arg: int) key(id)
table result(id: int, v: int) key(id)
table resolved(id: int, v: int) key(id)

on remote(id: int, arg: int) {
    send call(id, arg)
}

on defer(id: int, arg: int) {
    merge pending(id, arg)
}

on get(id: int) {
    send call(id, arg) :- pending(id, arg)
    delete pending(id)
}

on call(id: int, arg: int) {
    merge result(id, f(arg))
    send resolve(id)
}

on resolve(id: int) {
    merge resolved(id, result[id].v)
}
`

// MPISource is Appendix A.3's collectives, run by every rank. The schedule
// is data: a rank's child rows say where it forwards a broadcast (naive:
// the root lists every other rank; tree: a binary heap; ring: the next
// rank) or fans out its own allreduce contribution, and its succ row where
// a ring allreduce relays. join names the rank and the root.
const MPISource = `
table self(rank: string) key(rank)
table root(rank: string) key(rank)
table child(rank: string) key(rank)
table succ(rank: string) key(rank)
table got(v: int) key(v)
table gathered(rank: string, v: int) key(rank)
table part(rank: string, v: int) key(rank)

query total(sum<v>) :- part(_, v)

on join(me: string, r: string) {
    merge self(me)
    merge root(r)
}

on adopt(c: string) {
    merge child(c)
}

on follow(s: string) {
    merge succ(s)
}

on bcast(v: int) {
    merge got(v)
    send bcast@c(v) :- child(c)
}

# gather: each rank sends its value to the root
on gather(r: string, v: int) {
    merge gathered(r, v)
    send gather@to(r, v) :- self(r), root(to), to != r
}

# allreduce: a contribution fans out to its origin's children, or relays
# along succ until the next hop would be its origin
on allreduce(r: string, v: int) {
    merge part(r, v)
    send allreduce@c(r, v) :- self(r), child(c)
    send allreduce@s(r, v) :- succ(s), s != r
}
`
