// Content-addressed snapshots of the pipeline's inputs: per-device
// neighborhood signatures over the designed ANM and per-template-base
// version hashes — all core::fnv1a, the hash the checkpoint manifest and
// the analysis FibCache keys use. Two snapshots diff into a minimal
// recompute plan (see plan.hpp): a device whose signature is unchanged
// compiles and renders to the same bytes, so its baseline records can be
// reused. The design rules always re-run: they cost less than restoring
// their output (docs/incremental.md, "What an incremental rebuild costs").
//
// A signature is a conservative over-approximation of the compiler's
// true read set: a hash match guarantees identical output, a mismatch
// merely forces recomputation. The equivalence suite
// (tests/incremental_test.cpp) holds the byte-identity contract.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "anm/anm.hpp"
#include "render/renderer.hpp"

namespace autonet::incremental {

/// Per-device signatures plus the whole-network digest they are only
/// valid under: any global change (overlay data() such as allocated IP
/// blocks, the dns/rpki service overlays, the target platform) dirties
/// every device, because the platform compiler's network-wide sections
/// (links table, cross-connects, service pointers) read all of it.
struct DeviceSignatures {
  std::map<std::string, std::uint64_t> sigs;
  std::uint64_t global_digest = 0;
};

/// One pipeline snapshot, persisted as snapshot.json next to the phase
/// checkpoints it describes.
struct Snapshot {
  std::string input_hash;   // decimal FNV of the serialized input graph
  std::string platform;
  std::string lint_sig;     // lint-option slice of the options signature
  std::uint64_t nidb_hash = 0;   // content hash of the compiled NIDB
  std::uint64_t data_hash = 0;   // NIDB data() section alone
  std::uint64_t global_digest = 0;
  std::map<std::string, std::uint64_t> device_sigs;
  std::map<std::string, std::uint64_t> template_hashes;

  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static std::optional<Snapshot> from_json(const std::string& text);
};

/// Per-device neighborhood signatures over the fully designed ANM: the
/// device's node attributes and incident edges in every overlay, its
/// neighbors' overlay attributes, two hops through collision domains in
/// the ip overlay (subnets and every member's interface address), and
/// BGP peers' loopbacks.
[[nodiscard]] DeviceSignatures device_signatures(
    const anm::AbstractNetworkModel& anm, const std::string& platform);

/// Version hash per template base (entry paths, kind, and static
/// content). Builtin templates carry no retained source, so a compiled
/// template hashes by identity of its entry path — a version marker
/// that distinguishes template-set shape changes, not edits to an
/// individual builtin (those ship in a new binary; see
/// docs/incremental.md, "Limits").
[[nodiscard]] std::map<std::string, std::uint64_t> template_base_hashes(
    const render::TemplateStore& store);

}  // namespace autonet::incremental
