//go:build !race

package transducer

// raceEnabled is true under -race, where allocation counts are inflated.
const raceEnabled = false
