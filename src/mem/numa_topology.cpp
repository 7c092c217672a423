#include "src/mem/numa_topology.hpp"

#include <cassert>

namespace pd::mem {

NumaTopology::NumaTopology(int total_cpus, int sockets)
    : total_cpus_(total_cpus),
      sockets_(sockets),
      cpus_per_socket_((total_cpus + sockets - 1) / sockets) {
  assert(total_cpus >= 1 && sockets >= 1 && sockets <= total_cpus);
}

NumaTopology NumaTopology::blocked(int total_cpus, int sockets) {
  return NumaTopology(total_cpus, sockets);
}

int NumaTopology::socket_of(int cpu) const {
  if (cpu < 0) return 0;
  const int socket = cpu / cpus_per_socket_;
  return socket >= sockets_ ? sockets_ - 1 : socket;
}

}  // namespace pd::mem
