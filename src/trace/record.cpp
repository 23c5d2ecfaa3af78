#include "trace/record.hpp"

namespace maps {

const char *
metadataTypeName(MetadataType t)
{
    switch (t) {
      case MetadataType::Counter:
        return "counter";
      case MetadataType::TreeNode:
        return "tree";
      case MetadataType::Hash:
        return "hash";
      case MetadataType::Data:
        return "data";
    }
    return "unknown";
}

const char *
reuseTransitionName(ReuseTransition t)
{
    switch (t) {
      case ReuseTransition::ReadAfterRead:
        return "RAR";
      case ReuseTransition::ReadAfterWrite:
        return "RAW";
      case ReuseTransition::WriteAfterRead:
        return "WAR";
      case ReuseTransition::WriteAfterWrite:
        return "WAW";
    }
    return "???";
}

} // namespace maps
