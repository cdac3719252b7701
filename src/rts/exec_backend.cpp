#include "rts/exec_backend.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

namespace scalemd {

EntryId EntryRegistry::add(std::string name, WorkCategory category) {
  names_.push_back(std::move(name));
  categories_.push_back(category);
  return static_cast<EntryId>(names_.size()) - 1;
}

int checked_num_pes(int num_pes) {
  if (num_pes < 1) {
    throw std::invalid_argument("num_pes must be >= 1, got " + std::to_string(num_pes));
  }
  return num_pes;
}

void check_pe(int pe, int num_pes) {
  if (pe < 0 || pe >= num_pes) {
    throw std::out_of_range("PE " + std::to_string(pe) + " is off a machine of " +
                            std::to_string(num_pes) + " PEs");
  }
}

const char* backend_name(BackendKind k) {
  switch (k) {
    case BackendKind::kSimulated:
      return "sim";
    case BackendKind::kThreaded:
      return "threads";
    case BackendKind::kProcess:
      return "process";
  }
  return "?";
}

bool backend_from_name(const char* name, BackendKind& out) {
  if (std::strcmp(name, "sim") == 0 || std::strcmp(name, "simulated") == 0) {
    out = BackendKind::kSimulated;
    return true;
  }
  if (std::strcmp(name, "threads") == 0 || std::strcmp(name, "threaded") == 0) {
    out = BackendKind::kThreaded;
    return true;
  }
  if (std::strcmp(name, "process") == 0) {
    out = BackendKind::kProcess;
    return true;
  }
  return false;
}

}  // namespace scalemd
