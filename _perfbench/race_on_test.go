//go:build race

package main

// raceEnabled reports a -race build, under which timing tests are
// meaningless: the detector slows the serving path tenfold.
const raceEnabled = true
