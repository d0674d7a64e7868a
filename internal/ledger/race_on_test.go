//go:build race

package ledger

// raceEnabled mirrors the test binary's -race flag (see skipUnderRace).
const raceEnabled = true
