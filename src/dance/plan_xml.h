// Deployment plan <-> XML descriptor: the plan's only external form.
//
// The descriptor follows the shape the paper shows in Figure 4:
//
//   <Deployment:DeploymentPlan label="...">
//     <instance id="Central-AC">
//       <node>5</node>
//       <implementation>rtcm.AdmissionControl</implementation>
//       <configProperty>
//         <name>LB_Strategy</name>
//         <value>
//           <type><kind>tk_string</kind></type>
//           <value><string>PT</string></value>
//         </value>
//       </configProperty>
//     </instance>
//     <connection>
//       <name>ac-location</name>
//       <facetEndpoint instance="Central-LB" port="Location"/>
//       <receptacleEndpoint instance="Central-AC" port="Location"/>
//     </connection>
//   </Deployment:DeploymentPlan>
//
// plan_xml.cpp is the one place that knows the implementation names, the
// property names and their tk_string / tk_long kinds, and the N / PT / PJ
// strategy spelling.  Each kind's properties are emitted in name order, all
// of them except the deferrable-server ones (Analysis, DS_*), which appear
// only when the AC runs DS analysis.  Properties a descriptor leaves out
// take the config struct's defaults; a Subtask's TaskID, Stage,
// ExecutionTime and Priority are required.
#pragma once

#include <string>

#include "dance/deployment_plan.h"

namespace rtcm::dance {

/// Serialize a plan to its XML descriptor text.
[[nodiscard]] std::string plan_to_xml(const DeploymentPlan& plan);

/// Parse a descriptor into a typed, validated plan.  The identity of each
/// instance comes from its implementation, its <node> and (Subtask
/// instances) its TaskID and Stage properties.  Refused with a Status that
/// names the instance and the property or port: malformed XML, an unknown
/// implementation, a property the kind does not have, a wrong tk_* kind, a
/// malformed or out-of-range value, a missing required property, an id or
/// TE/IR ProcessorID that disagrees with the identity, a duplicate
/// identity, and a connection port its endpoints do not have.
[[nodiscard]] Result<DeploymentPlan> plan_from_xml(const std::string& xml);

}  // namespace rtcm::dance
