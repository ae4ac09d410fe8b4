#include "digest.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "io/net_io.h"

namespace perfbench {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t routing_hash(const ntr::graph::RoutingGraph& g) {
  return fnv1a(ntr::io::write_routing(g));
}

std::string digest_key(unsigned slot, std::size_t index) {
  return std::to_string(slot) + "/" + std::to_string(index);
}

namespace {

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double parse_double(const std::string& text, const std::string& where) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    throw std::runtime_error(where + ": bad number '" + text + "'");
  return v;
}

unsigned slot_of(const std::string& key) {
  return static_cast<unsigned>(std::stoul(key.substr(0, key.find('/'))));
}

}  // namespace

DigestTable DigestTable::load(const std::string& path) {
  DigestTable table;
  std::ifstream in(path);
  if (!in) return table;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, hash, d0, d1, c0, c1;
    const std::string where = path + ":" + std::to_string(line_no);
    if (!(fields >> key >> hash >> d0 >> d1 >> c0 >> c1))
      throw std::runtime_error(where + ": expected 6 fields");
    NetDigest d;
    d.routing_hash = std::stoull(hash, nullptr, 16);
    d.seed_delay_s = parse_double(d0, where);
    d.delay_s = parse_double(d1, where);
    d.seed_cost_um = parse_double(c0, where);
    d.cost_um = parse_double(c1, where);
    table.entries_[key] = d;
  }
  return table;
}

std::optional<NetDigest> DigestTable::find(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void DigestTable::replace_slot(unsigned slot, const DigestTable& other) {
  std::erase_if(entries_, [&](const auto& e) { return slot_of(e.first) == slot; });
  for (const auto& [key, d] : other.entries_)
    if (slot_of(key) == slot) entries_[key] = d;
}

void DigestTable::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# slot/index routing_hash seed_delay_s delay_s seed_cost_um cost_um\n";
  for (const auto& [key, d] : entries_) {
    char hash[17];
    std::snprintf(hash, sizeof hash, "%016" PRIx64, d.routing_hash);
    out << key << ' ' << hash << ' ' << hex(d.seed_delay_s) << ' ' << hex(d.delay_s)
        << ' ' << hex(d.seed_cost_um) << ' ' << hex(d.cost_um) << '\n';
  }
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
