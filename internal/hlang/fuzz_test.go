package hlang

import (
	"reflect"
	"testing"
)

// FuzzHLangRoundTrip: Parse never panics, and a program it accepts is a
// structural fixed point of Format then Parse (positions aside), with
// Format itself idempotent. The seeds are the shipped programs (the
// auction is in testdata/fuzz) and the regressions of a send rule's
// dropped filters and the removed set<…> column type.
func FuzzHLangRoundTrip(f *testing.F) {
	for _, src := range []string{CovidSource, CartSource, ActorsSource, FuturesSource, MPISource,
		"table top(i: int, amt: int) key(i)\non watch(id: int) {\n    send ticker(i, amt) :- top(i, amt), i == id\n}\n",
		"table acct(id: int, tags: set<string>) key(id)\non tag(id: int, x: string) {\n    merge acct[id].tags <- x\n}\n",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := Parse(src)
		if err != nil {
			return
		}
		out := Format(p1)
		p2, err := Parse(out)
		if err != nil {
			t.Fatalf("formatted program does not reparse: %v\n%s", err, out)
		}
		if again := Format(p2); again != out {
			t.Fatalf("Format not idempotent:\n--- first\n%s\n--- second\n%s", out, again)
		}
		zeroPos(p1)
		zeroPos(p2)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("program changed across Format/Parse:\n%s", out)
		}
	})
}
