//go:build mut_read_unvalidated

package multilist

const (
	mutEpochAfterRv    = false
	mutEpochWinnerOnly = false
	mutReadUnvalidated = true
)
