//go:build mut_svc_stale_refill

package service

const mutSvcStaleRefill = true
