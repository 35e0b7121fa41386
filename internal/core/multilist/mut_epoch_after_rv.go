//go:build mut_epoch_after_rv

package multilist

const (
	mutEpochAfterRv    = true
	mutEpochWinnerOnly = false
	mutReadUnvalidated = false
)
