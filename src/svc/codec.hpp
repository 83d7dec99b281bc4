// Shared text codec for the service's durable and wire formats.
//
// The journal (svc/journal) and the cluster wire protocol (cluster/frame)
// frame records the same way — [u32 len][u32 crc32]payload with a text
// payload — and serialize the same domain values: plans, attempt records,
// full job specs. This header is the single definition of those field
// runs, so a JobSpec journaled at admission and a JobSpec shipped to a
// worker over a socket are byte-identical field-for-field, and a change
// to one format cannot silently diverge from the other.
//
// Byte-compatibility contract: put_* must keep emitting exactly the bytes
// the PR 4 journal emitted (existing journals must keep decoding), so
// every emitted field run begins with a single leading space — callers
// compose runs by plain concatenation after the record header.
#pragma once

#include <sstream>

#include "svc/job.hpp"
#include "svc/wire.hpp"

namespace dsm::svc::codec {

/// " <algo> <model> <radix> <raw> <pred> <has_runner>[ <runner fields>]"
void put_plan(std::ostringstream& os, const Plan& p);
Plan get_plan(wire::Parser& p);

/// A StatusCode by name; an unknown name is kCorruptJournal.
StatusCode get_status_code(wire::Parser& p);

/// " <error netstr> <retryable> <backoff> <fault_site>"
void put_attempt(std::ostringstream& os, const AttemptRecord& a);
AttemptRecord get_attempt(wire::Parser& p);

/// Every client-visible JobSpec field plus crash bookkeeping, in the PR 4
/// kAdmit order (id first; svc_seq is NOT encoded — it travels in the
/// record header and the caller restores it after get_job).
void put_job(std::ostringstream& os, const JobSpec& j);
JobSpec get_job(wire::Parser& p);

}  // namespace dsm::svc::codec
