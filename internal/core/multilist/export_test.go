package multilist

// ReadCheck exposes the read walk's version-check interval to the external
// tests.
const ReadCheck = readCheck
