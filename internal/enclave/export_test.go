package enclave

// DerivedBytes exposes derivedBytes: the bytes of each entry a region
// appends that an ECALL does not count as loaded.
var DerivedBytes = derivedBytes
