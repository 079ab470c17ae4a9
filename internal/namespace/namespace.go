// Package namespace names Harmony's decisions (Section 3.2 of "Exposing
// Application Alternatives").
//
// Fully qualified names are dotted paths of the form
//
//	application.instance.bundle.option.resource.tag
//
// e.g. DBclient.66.where.DS.client.memory holds the memory allocated to the
// client node of the data-shipping option of instance 66 of DBclient. Nothing
// stores these names: the controller computes an instance's leaves from its
// published decisions (core.Controller.Namespace), and the server walks them
// to build the variable updates it pushes to the application.
package namespace

import (
	"errors"
	"fmt"

	"harmony/internal/protocol"
)

// ErrNotFound is returned when a walk finds no leaf under its prefix.
var ErrNotFound = errors.New("namespace: path not found")

// Value is a leaf value, a number or a string: the value a variable update
// carries to the application.
type Value = protocol.VarValue

// InstancePath builds the conventional application-instance prefix, e.g.
// InstancePath("DBclient", 66) == "DBclient.66".
func InstancePath(app string, instance int) string {
	return fmt.Sprintf("%s.%d", app, instance)
}
