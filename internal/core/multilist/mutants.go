//go:build !mut_epoch_after_rv && !mut_epoch_winner_only

package multilist

// Hand mutants of the structure epoch, compiled in only under their build
// tags; ci.sh requires the test that kills each one to fail with it.
//
//   - mut_epoch_after_rv: helpers bump S after the Rv CCAS, not before.
//   - mut_epoch_winner_only: only the helper whose splice or unsplice CCAS
//     succeeded bumps S, not a late helper that finds the change done.
//
// The constants are false here, so the compiler deletes their branches.
const (
	mutEpochAfterRv    = false
	mutEpochWinnerOnly = false
)
