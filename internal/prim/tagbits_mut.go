//go:build mut_tag8

package prim

// tagBits under the mut_tag8 hand mutant: the old 8-bit counter, which a
// native window of 256 same-value rewrites defeats. ci.sh requires
// TestTaggedWrapInWindow to fail with it.
const tagBits = 8
