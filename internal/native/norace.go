//go:build !race

package native

// RaceEnabled reports whether the binary was built with -race. The
// allocation gates skip under it: the detector's instrumentation changes
// escape decisions and allocation counts.
const RaceEnabled = false
