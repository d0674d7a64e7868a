//go:build !race

package twoldag

const raceEnabled = false
