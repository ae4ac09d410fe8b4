#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ntr::spice {

/// Circuit node index. Node 0 is always ground.
using CircuitNode = std::size_t;
inline constexpr CircuitNode kGround = 0;

enum class ElementKind { kResistor, kCapacitor, kInductor, kVoltageSource };

/// Independent voltage source waveform: either a DC level or an ideal step
/// from 0 to `value` volts at t = 0 (the paper drives the net with a step
/// behind the 100-ohm driver resistor).
enum class SourceWaveform { kDc, kStep };

struct Element {
  ElementKind kind;
  std::string name;     ///< SPICE-style designator, e.g. "R12", "Csink3"
  CircuitNode a = kGround;  ///< positive terminal
  CircuitNode b = kGround;  ///< negative terminal
  double value = 0.0;   ///< ohms / farads / henries / volts
  SourceWaveform waveform = SourceWaveform::kDc;  ///< sources only
};

/// A linear circuit: R, C, L elements and independent voltage sources over
/// an indexed node set. This is the common input of the transient engine,
/// the moment engine, and the SPICE-deck writer.
class Circuit {
 public:
  Circuit() { node_names_.emplace_back("0"); }

  /// Adds a named node; returns its index (>= 1).
  CircuitNode add_node(std::string name);

  /// Number of nodes including ground.
  [[nodiscard]] std::size_t node_count() const { return node_names_.size(); }
  [[nodiscard]] const std::string& node_name(CircuitNode n) const {
    return node_names_.at(n);
  }

  void add_resistor(std::string name, CircuitNode a, CircuitNode b, double ohms);
  void add_capacitor(std::string name, CircuitNode a, CircuitNode b, double farads);
  void add_inductor(std::string name, CircuitNode a, CircuitNode b, double henries);
  void add_voltage_source(std::string name, CircuitNode pos, CircuitNode neg,
                          double volts, SourceWaveform waveform);

  [[nodiscard]] std::span<const Element> elements() const { return elements_; }
  [[nodiscard]] std::size_t element_count(ElementKind kind) const;

 private:
  void check_nodes(CircuitNode a, CircuitNode b) const;

  std::vector<std::string> node_names_;
  std::vector<Element> elements_;
};

}  // namespace ntr::spice
