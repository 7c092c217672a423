// CPU → socket → memory-partition topology for NUMA-aware kernel state.
//
// KNL/OFP nodes are not flat: in SNC-4 each quadrant ("socket" here) owns
// a slice of the cores plus a near MCDRAM partition and a far DDR
// partition. The IHK reservation conventions (contiguous CPU blocks, low
// ids left to Linux — see os/partition) and the block rank placement the
// app topology assumes (apps/topology) both make contiguous-block
// CPU→socket assignment the right model, so that is the only mapping
// offered: socket = cpu / ceil(cpus/sockets).
//
// Consumers: the kernel heap places cold allocations and magazine refills
// in the owning CPU's partition and batches remote-free drains per source
// socket; PhysMap::alloc_near prefers a socket's home domain.
#pragma once


namespace pd::mem {

class NumaTopology {
 public:
  /// Flat fallback: one socket covering every CPU (locality is a no-op).
  NumaTopology() : NumaTopology(1, 1) {}

  /// `total_cpus` cores split into `sockets` contiguous equal blocks
  /// (the SNC-4 quadrant layout; a ragged tail joins the last socket).
  static NumaTopology blocked(int total_cpus, int sockets);

  int sockets() const { return sockets_; }
  int total_cpus() const { return total_cpus_; }
  bool flat() const { return sockets_ == 1; }

  /// Socket owning `cpu`. CPUs outside [0, total_cpus) clamp to the edge
  /// sockets so foreign ids (e.g. hot-unplugged cores) stay well-defined.
  int socket_of(int cpu) const;

 private:
  NumaTopology(int total_cpus, int sockets);

  int total_cpus_;
  int sockets_;
  int cpus_per_socket_;
};

}  // namespace pd::mem
