#include "service/queue.hpp"

namespace pslocal::service {

const char* admission_name(Admission a) {
  switch (a) {
    case Admission::kAccepted: return "accepted";
    case Admission::kQueueFull: return "queue_full";
    case Admission::kShutdown: return "shutdown";
    case Admission::kShed: return "shed";
  }
  return "unknown";
}

}  // namespace pslocal::service
