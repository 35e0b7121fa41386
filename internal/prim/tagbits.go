//go:build !mut_tag8

package prim

// tagBits is the Figure 8(b) counter width (see the const block in
// ccas.go).
const tagBits = 16
