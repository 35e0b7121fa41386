//go:build mut_epoch_winner_only

package multilist

const (
	mutEpochAfterRv    = false
	mutEpochWinnerOnly = true
	mutReadUnvalidated = false
)
