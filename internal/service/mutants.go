//go:build !mut_svc_stale_refill

package service

// Hand mutant of the limiter transition, compiled in only under its build
// tag; ci.sh requires the test that kills it to fail with it.
//
//   - mut_svc_stale_refill: a request from any other window, older ones
//     included, refills the bucket, not only one from a newer window.
//
// The constant is false here, so the compiler deletes its branch.
const mutSvcStaleRefill = false
