#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "graph/routing_graph.h"

/// Expected-routing digests: the correctness gate every run applies. One
/// digest per routed net holds a hash of the routing's node and edge list
/// (its io::write_routing text) and the objectives as exact doubles (hex
/// floats in the checked-in files), so a routing that differs in a single
/// bit of delay or wirelength fails.
namespace perfbench {

struct NetDigest {
  std::uint64_t routing_hash = 0;
  double seed_delay_s = 0.0;  ///< max sink delay of the seed tree
  double delay_s = 0.0;       ///< max sink delay of the routing
  double seed_cost_um = 0.0;  ///< wirelength of the seed tree
  double cost_um = 0.0;       ///< wirelength of the routing

  bool operator==(const NetDigest&) const = default;
};

/// FNV-1a, 64 bit.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// fnv1a of the routing's io::write_routing text.
[[nodiscard]] std::uint64_t routing_hash(const ntr::graph::RoutingGraph& g);

/// Digests of one workload, keyed "<corpus slot>/<net or request index>".
class DigestTable {
 public:
  /// Reads a digest file; an absent file yields an empty table.
  static DigestTable load(const std::string& path);

  void put(const std::string& key, const NetDigest& digest) { entries_[key] = digest; }
  [[nodiscard]] std::optional<NetDigest> find(const std::string& key) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Rewrites every entry of `slot` from `other`, keeping other slots.
  void replace_slot(unsigned slot, const DigestTable& other);

  void save(const std::string& path) const;

 private:
  std::map<std::string, NetDigest> entries_;
};

[[nodiscard]] std::string digest_key(unsigned slot, std::size_t index);

}  // namespace perfbench
