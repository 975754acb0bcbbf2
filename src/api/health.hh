/**
 * @file
 * The health and scrub records of the `dnastore::api` surface
 * (Store::health, Store::scrub, ScrubJob). They are declared once, in
 * pipeline/health.hh, and re-exported here unchanged.
 */

#ifndef DNASTORE_API_HEALTH_HH
#define DNASTORE_API_HEALTH_HH

#include "pipeline/health.hh"

namespace dnastore {
namespace api {

using dnastore::ClusterProbe;
using dnastore::CodewordHealth;
using dnastore::HealthReport;
using dnastore::ScrubOptions;
using dnastore::ScrubReport;

} // namespace api
} // namespace dnastore

#endif // DNASTORE_API_HEALTH_HH
