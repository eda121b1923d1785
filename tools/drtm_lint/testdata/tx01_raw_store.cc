// Fixture: planted TX01 violations (raw accesses to transactional
// memory inside Transact bodies). The tool self-test asserts each of
// these is flagged; this file is never compiled into the build.
#include <cstring>

#include "src/htm/htm.h"

namespace fixture {

// Two call levels below the Transact body (RawHelper calls it): the
// call summary must propagate the obligation here too.
void RawHelperHelper(unsigned char* block) {
  block[1] = 9;  // TX01: raw store two levels below a Transact body
}

// Reachable from the Transact body below via the one-level summary.
void RawHelper(unsigned char* block) {
  block[0] = 7;  // TX01: raw indexed store in a tx-reachable function
  RawHelperHelper(block);  // pulls RawHelperHelper in at level two
}

void PlantTx01(drtm::htm::HtmThread& htm, unsigned char* base) {
  htm.Transact([&] {
    unsigned char* node = base + 64;
    node[2] = 1;                    // TX01: raw indexed store
    *node = 3;                      // TX01: raw store through deref
    unsigned char c = node[1];      // TX01: raw indexed read
    std::memcpy(node, &c, 1);       // TX01: raw bulk write
    base[0] = 9;                    // TX01: enclosing-scope pointer
    RawHelper(base);                // pulls RawHelper into the summary
    drtm::htm::Store(node + 4, c);  // compliant: routed through htm::
    drtm::htm::ReadBytes(&c, &node[5], 1);  // compliant: address-of arg
  });
}

// The run-to-commit helper's lambda is a Transact body too.
void PlantTx01UntilCommitted(drtm::htm::HtmThread& htm, unsigned char* base) {
  htm.TransactUntilCommitted([&] {
    base[3] = 5;  // TX01: raw store in a run-to-commit body
  });
}

void SuppressedTx01(drtm::htm::HtmThread& htm, unsigned char* base) {
  htm.Transact([&] {
    unsigned char* node = base;
    // drtm-lint: allow(TX01 bootstrap path, single-threaded by construction)
    node[0] = 1;
  });
}

}  // namespace fixture
