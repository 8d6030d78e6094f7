// Seeded violation: wire-format code reaching up into the connection
// layer. Wire encoding sits at the bottom of the quic include DAG and
// may depend on common/ and sim/net only.
#include "quic/connection.h"  // expect: layering

namespace corpus {

int EncodeSomething() { return 1; }

}  // namespace corpus
